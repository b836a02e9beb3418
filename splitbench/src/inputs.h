// Input generation. Every input the program sees is derived here from the run's
// --seed, with generators that belong to the benchmark (not to the program), so a
// change to the program cannot change its own inputs.
#ifndef SPLITBENCH_INPUTS_H_
#define SPLITBENCH_INPUTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace splitbench {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t Fnv64(uint64_t v) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xFF;
    h *= 0x100000001B3ull;
    v >>= 8;
  }
  return h;
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return SplitMix64(&state_); }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }

 private:
  uint64_t state_;
};

// YCSB's scrambled zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"): item ranks follow zipf(theta) and are scattered over the
// keyspace by a hash, so the hot keys are not adjacent.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t items, double theta) : n_(items), theta_(theta) {
    double zeta2 = 0;
    for (uint64_t i = 1; i <= 2; ++i) {
      zeta2 += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    for (uint64_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) const {
    double u = rng->Unit();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      rank = std::min(rank, n_ - 1);
    }
    return Fnv64(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// YCSB record key: "user" followed by the decimal hash of the record number, so key
// lengths vary the way YCSB's do.
inline std::string YcsbKey(uint64_t record) { return "user" + std::to_string(Fnv64(record)); }

// Deterministic payload: `n` bytes drawn from a stream seeded by `tag`.
inline std::string Payload(uint64_t tag, size_t n) {
  std::string out(n, '\0');
  uint64_t state = tag;
  for (size_t i = 0; i < n; i += 8) {
    uint64_t w = SplitMix64(&state);
    for (size_t j = 0; j < 8 && i + j < n; ++j) {
      out[i + j] = static_cast<char>(w >> (8 * j));
    }
  }
  return out;
}

inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b * 0xD6E8FEB86659FD93ull);
  return SplitMix64(&s);
}

}  // namespace splitbench

#endif  // SPLITBENCH_INPUTS_H_
