#include "bignum/primes.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bignum/montgomery.hpp"

namespace bcwan::bignum {

namespace {

// Primes below 1000 for trial-division pre-filtering.
constexpr std::array<std::uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// Consecutive runs of kSmallPrimes whose product fits in 32 bits: one
// remainder of the candidate per group, then one machine-word remainder per
// prime, instead of one multi-word division per prime.
struct PrimeGroup {
  std::uint32_t product;
  std::size_t begin, end;  // index range into kSmallPrimes
};

template <typename Visit>
constexpr void for_each_group(Visit&& visit) {
  std::size_t begin = 0;
  while (begin < kSmallPrimes.size()) {
    std::uint64_t product = 1;
    std::size_t end = begin;
    while (end < kSmallPrimes.size() &&
           product * kSmallPrimes[end] <= 0xffffffffULL) {
      product *= kSmallPrimes[end++];
    }
    visit(PrimeGroup{static_cast<std::uint32_t>(product), begin, end});
    begin = end;
  }
}

constexpr std::size_t kGroupCount = [] {
  std::size_t count = 0;
  for_each_group([&count](const PrimeGroup&) { ++count; });
  return count;
}();

constexpr std::array<PrimeGroup, kGroupCount> kGroups = [] {
  std::array<PrimeGroup, kGroupCount> out{};
  std::size_t i = 0;
  for_each_group([&](const PrimeGroup& g) { out[i++] = g; });
  return out;
}();

// A candidate's remainder by a group is taken one block of kBlockWords
// 32-bit words at a time: the block's words weighted by 2^(32k) mod g,
// summed in 128 bits, plus the higher blocks' remainder weighted by
// 2^(32 kBlockWords) mod g, then reduced by one word division. A 256-bit
// candidate is one block.
constexpr std::size_t kBlockWords = 8;

// kWordWeights[k][g] = 2^(32k) mod kGroups[g].product, k <= kBlockWords.
constexpr auto kWordWeights = [] {
  std::array<std::array<std::uint32_t, kGroupCount>, kBlockWords + 1> out{};
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    const std::uint64_t product = kGroups[g].product;
    std::uint64_t weight = 1 % product;
    for (std::size_t k = 0; k <= kBlockWords; ++k) {
      out[k][g] = static_cast<std::uint32_t>(weight);
      weight = (weight << 32) % product;
    }
  }
  return out;
}();

// Widest value the word buffers hold: the widest Miller-Rabin modulus.
constexpr std::size_t kMaxWords = 2 * MontgomeryCtx::kMaxLimbs;

enum class TrialDivision { kPrime, kComposite, kUndecided };

/// Trial division of a value >= 2, given as `count` little-endian 32-bit
/// words (count a multiple of kBlockWords), by every prime below 1000. A
/// small prime itself is prime, not a multiple of one. No allocation.
TrialDivision trial_divide(const std::uint32_t* words, std::size_t count) {
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    const std::uint64_t product = kGroups[g].product;
    std::uint64_t rem = 0;
    for (std::size_t block = count; block > 0; block -= kBlockWords) {
      unsigned __int128 acc =
          static_cast<unsigned __int128>(rem) * kWordWeights[kBlockWords][g];
      for (std::size_t k = 0; k < kBlockWords; ++k) {
        acc += static_cast<std::uint64_t>(words[block - kBlockWords + k]) *
               kWordWeights[k][g];
      }
      rem = static_cast<std::uint64_t>(acc % product);
    }
    for (std::size_t i = kGroups[g].begin; i < kGroups[g].end; ++i) {
      if (static_cast<std::uint32_t>(rem) % kSmallPrimes[i] == 0) {
        const bool is_itself = words[0] == kSmallPrimes[i] &&
                               std::all_of(words + 1, words + count,
                                           [](std::uint32_t w) { return w == 0; });
        return is_itself ? TrialDivision::kPrime : TrialDivision::kComposite;
      }
    }
  }
  return TrialDivision::kUndecided;
}

/// Big-endian bytes -> little-endian 32-bit words, zero-padded to a
/// multiple of kBlockWords; returns the word count. `be` holds at most
/// 4 * kMaxWords bytes.
std::size_t to_words(util::ByteView be, std::uint32_t* words) {
  const std::size_t count =
      ((be.size() + 3) / 4 + kBlockWords - 1) / kBlockWords * kBlockWords;
  std::fill(words, words + count, 0u);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t pos = be.size() - 1 - i;  // byte significance
    words[pos / 4] |= static_cast<std::uint32_t>(be[i]) << (8 * (pos % 4));
  }
  return count;
}

/// Miller-Rabin over `rounds` random bases for an n that trial division
/// left undecided.
bool miller_rabin(const BigUint& n, util::Rng& rng, std::size_t rounds) {
  // A composite below 1009^2 has a prime factor below 1009 — the first
  // prime past the table — so trial division already decided it.
  if (n < BigUint(1009ULL * 1009)) return true;

  const BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d.shr(1);
    ++r;
  }

  // One context per candidate, built directly: candidates are one-shot
  // moduli and must not evict the hot entries of MontgomeryCtx::cached.
  // n is odd here (2 is in the trial-division table).
  const MontgomeryCtx ctx(n);
  const BigUint two(2);
  const BigUint span = n - BigUint(4);  // bases in [2, n-2]
  for (std::size_t round = 0; round < rounds; ++round) {
    const BigUint base = BigUint::random_below(rng, span) + two;
    if (!ctx.strong_probable_prime(base, d, r)) return false;
  }
  return true;
}

}  // namespace

bool is_probable_prime(const BigUint& n, util::Rng& rng, std::size_t rounds) {
  if (n < BigUint(2)) return false;
  if (n.bit_length() > 32 * kMaxWords)
    throw std::domain_error("is_probable_prime: wider than 4096 bits");
  std::array<std::uint32_t, kMaxWords> words{};
  const util::Bytes be = n.to_bytes_be();
  switch (trial_divide(words.data(), to_words(be, words.data()))) {
    case TrialDivision::kPrime:
      return true;
    case TrialDivision::kComposite:
      return false;
    case TrialDivision::kUndecided:
      break;
  }
  return miller_rabin(n, rng, rounds);
}

BigUint generate_prime(util::Rng& rng, std::size_t bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  if (bits > 32 * kMaxWords)
    throw std::invalid_argument("generate_prime: bits > 4096");
  const std::size_t nbytes = (bits + 7) / 8;
  const std::size_t excess = nbytes * 8 - bits;
  // Candidates are drawn and trial-divided in these stack buffers; only the
  // ~16% that survive trial division become a BigUint.
  std::array<std::uint8_t, 4 * kMaxWords> buf{};
  std::array<std::uint32_t, kMaxWords> words{};
  const std::span<std::uint8_t> raw(buf.data(), nbytes);
  for (;;) {
    rng.fill(raw);
    // Force exact bit length and the next bit down (so p*q has exactly
    // 2*bits bits, as RSA keygen requires), and force oddness.
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
    if (excess == 7) {
      raw[1] |= 0x80;
    } else {
      raw[0] |= static_cast<std::uint8_t>(0x40 >> excess);
    }
    raw[nbytes - 1] |= 0x01;
    const TrialDivision verdict =
        trial_divide(words.data(), to_words(raw, words.data()));
    if (verdict == TrialDivision::kComposite) continue;
    BigUint candidate = BigUint::from_bytes_be(raw);
    if (verdict == TrialDivision::kPrime ||
        miller_rabin(candidate, rng, kMillerRabinRounds)) {
      return candidate;
    }
  }
}

BigUint generate_rsa_prime(util::Rng& rng, std::size_t bits,
                           const BigUint& public_exponent) {
  for (;;) {
    BigUint p = generate_prime(rng, bits);
    if (BigUint::gcd(p - BigUint(1), public_exponent).is_one()) return p;
  }
}

}  // namespace bcwan::bignum
