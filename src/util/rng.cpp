#include "util/rng.hpp"

#include <cmath>

namespace bcwan::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept { return splitmix64(x); }

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + below(hi - lo + 1);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() noexcept {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Rng::exponential(double mean) noexcept {
  double u = 0.0;
  while (u == 0.0) u = uniform();
  return -mean * std::log(u);
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

void Rng::fill(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i < out.size()) {
    std::uint64_t r = next();
    for (int k = 0; k < 8 && i < out.size(); ++k) {
      out[i++] = static_cast<std::uint8_t>(r);
      r >>= 8;
    }
  }
}

}  // namespace bcwan::util
