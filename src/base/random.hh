/**
 * @file
 * Deterministic pseudo-random primitives.
 *
 * Everything stochastic in CacheMind flows through these generators so
 * that traces, policies, and simulated-LLM error draws are reproducible
 * bit-for-bit across runs and platforms.
 */

#ifndef CACHEMIND_BASE_RANDOM_HH
#define CACHEMIND_BASE_RANDOM_HH

#include <cstdint>
#include <string_view>

namespace cachemind {

/** One SplitMix64 step; also usable as a 64-bit integer mixer. */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Mix two 64-bit values into one (order-sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) +
                           (a >> 2)));
}

/** FNV-1a offset basis: the hash of the empty string. */
constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/**
 * Continue an FNV-1a hash over more bytes, so that
 * fnv1aExtend(fnv1a(a), b) == fnv1a(a + b) without building a + b.
 */
constexpr std::uint64_t
fnv1aExtend(std::uint64_t h, std::string_view s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a hash of a byte string. */
constexpr std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1aExtend(kFnv1aBasis, s);
}

/**
 * Small, fast deterministic RNG (xoshiro256** seeded via SplitMix64).
 *
 * Not cryptographic; statistical quality is more than sufficient for
 * workload synthesis and capability-gate draws.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

    /** Re-seed the generator deterministically from one 64-bit value. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /** Draw from a (rounded) geometric-like distribution, mean approx m. */
    std::uint64_t nextGeometric(double mean);

    /** Gaussian via Box–Muller (deterministic given the stream). */
    double nextGaussian(double mean, double stdev);

  private:
    std::uint64_t s_[4];
    bool have_cached_gaussian_ = false;
    double cached_gaussian_ = 0.0;
};

/**
 * Deterministic Bernoulli draw keyed by an arbitrary tuple of values.
 *
 * Used by the simulated LLM backends: the outcome for (model, question,
 * skill) never changes across runs, so benchmark results are stable.
 */
bool keyedBernoulli(std::uint64_t key, double p);

/** Deterministic uniform double in [0,1) keyed by a 64-bit value. */
double keyedUniform(std::uint64_t key);

/** Deterministic pick of an index in [0, n) keyed by a 64-bit value. */
std::size_t keyedPick(std::uint64_t key, std::size_t n);

} // namespace cachemind

#endif // CACHEMIND_BASE_RANDOM_HH
