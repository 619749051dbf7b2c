#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace cachemind {

namespace {
constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}
} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &lane : s_) {
        x = splitMix64(x);
        lane = x;
    }
    have_cached_gaussian_ = false;
}

std::uint64_t
Rng::next()
{
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

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    CM_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Rejection-free multiply-shift; bias is negligible for our bounds.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    CM_ASSERT(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ULL;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    if (mean <= 0.0)
        return 0;
    const double u = nextDouble();
    const double v = -std::log(1.0 - u) * mean;
    return static_cast<std::uint64_t>(v);
}

double
Rng::nextGaussian(double mean, double stdev)
{
    if (have_cached_gaussian_) {
        have_cached_gaussian_ = false;
        return mean + stdev * cached_gaussian_;
    }
    double u1 = nextDouble();
    double u2 = nextDouble();
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.141592653589793 * u2;
    cached_gaussian_ = r * std::sin(theta);
    have_cached_gaussian_ = true;
    return mean + stdev * r * std::cos(theta);
}

bool
keyedBernoulli(std::uint64_t key, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return keyedUniform(key) < p;
}

double
keyedUniform(std::uint64_t key)
{
    return static_cast<double>(splitMix64(key) >> 11) * 0x1.0p-53;
}

std::size_t
keyedPick(std::uint64_t key, std::size_t n)
{
    CM_ASSERT(n > 0, "keyedPick requires n > 0");
    return static_cast<std::size_t>(splitMix64(key) % n);
}

} // namespace cachemind
