/**
 * @file
 * The shared cross-question retrieval cache, now a tier orchestrator:
 * a lock-free-read clock hot tier (clock_cache.hh) over an optional
 * compressed secondary tier (secondary_tier.hh), behind the same
 * public surface the sharded-lock LRU had — getOrCompute single
 * flight, non-blocking peek/publish — so retrievers, askStream, and
 * the serve engine pool need no call-site changes.
 *
 * Many users asking overlapping questions about the same (workload,
 * policy) trace slice assemble byte-identical context bundles; the
 * engine memoizes them here so only the first question per slice pays
 * the retrieval cost. A hot-tier hit is lock-free. A hot-tier miss
 * consults the secondary tier, which stores bundles the hot tier
 * demoted in compressed (binary-codec) form: a secondary hit decodes
 * and re-promotes instead of re-running retrieval. Lookups are
 * *single-flight*: when a hot key misses while another worker is
 * already assembling its bundle, the late arrivals wait on the
 * in-flight computation instead of re-running retrieval — the
 * evidence-reuse idea ReasonCache applies to shared KV prefixes,
 * applied to trace-grounded context bundles.
 *
 * Tier state only ever changes *when* evidence is assembled, never
 * *what* is answered: bundles are immutable behind shared_ptr, equal
 * keys hold byte-identical bundles, and the codec round trip is
 * byte-exact.
 */

#ifndef CACHEMIND_RETRIEVAL_CACHE_HH
#define CACHEMIND_RETRIEVAL_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "retrieval/cache_tier.hh"
#include "retrieval/clock_cache.hh"
#include "retrieval/context.hh"
#include "retrieval/secondary_tier.hh"

namespace cachemind::retrieval {

/** Tiered single-flight cache over immutable context bundles. */
class RetrievalCache
{
  public:
    using BundlePtr = std::shared_ptr<const ContextBundle>;
    using ComputeFn = std::function<BundlePtr()>;

    /** Tier geometry (the Builder knobs). */
    struct Options
    {
        /**
         * Hot-tier resident-bundle budget — exact: occupancy never
         * exceeds it (0 disables caching entirely; every lookup
         * computes).
         */
        std::size_t capacity = 1024;
        /** Hot-tier slot-table size (0 = derive from capacity). */
        std::size_t hot_slots = 0;
        /**
         * Secondary-tier encoded-byte budget (0 disables the tier:
         * bundles the hot tier demotes are destroyed, the pre-tier
         * behavior).
         */
        std::size_t secondary_capacity_bytes = 0;
    };

    /** What one lookup did (per-retriever stats attribution). */
    struct Outcome
    {
        /** Which tier (if any) served the lookup. */
        enum class Source {
            /** Not served from cache: the caller computed. */
            None,
            /** Lock-free hot-tier hit. */
            Hot,
            /** Secondary-tier hit, decoded and re-promoted. */
            Secondary,
            /** Coalesced onto another caller's in-flight compute. */
            Flight,
        };

        /** Served from cache (including coalesced in-flight waits). */
        bool hit = false;
        /** Entries this lookup's insertion evicted (left all tiers). */
        std::uint64_t evictions = 0;
        Source source = Source::None;
    };

    /** Aggregate lookup counters (cache-level, not per-tier). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Entries that left the cache entirely (all tiers). */
        std::uint64_t evictions = 0;
    };

    /** Per-tier counters + inter-tier traffic. */
    struct TieredCounters
    {
        TierStats hot;
        TierStats secondary;
        bool secondary_enabled = false;
        /** Secondary hits re-admitted into the hot tier. */
        std::uint64_t promotions = 0;
        /** Hot-tier victims admitted into the secondary tier. */
        std::uint64_t demotions = 0;
    };

    explicit RetrievalCache(const Options &options);

    RetrievalCache(const RetrievalCache &) = delete;
    RetrievalCache &operator=(const RetrievalCache &) = delete;

    /**
     * Return the bundle for `key`, computing it at most once per
     * residency: a tier hit returns the shared bundle immediately; a
     * miss runs `compute` (outside every lock) and publishes the
     * result; concurrent misses on the same key wait for the first
     * computation instead of re-running it (counted as hits).
     */
    BundlePtr getOrCompute(const std::string &key,
                           const ComputeFn &compute,
                           Outcome *outcome = nullptr);

    /**
     * Non-blocking lookup for the streaming pipeline: return the
     * bundle when a tier holds it, nullptr otherwise — a pending
     * in-flight entry counts as a miss rather than being waited on.
     * Streams must never join a single-flight computation (in either
     * direction): a stream holding the in-flight claim while pushing
     * chunks into a consumer-paced channel would let a paused
     * consumer block every blocking ask() coalescing on the key, so
     * streams peek, retrieve on their own, and publish(). A hot miss
     * with a secondary tier briefly takes the flight mutex, under
     * which tier transfers run, but never waits on a computation.
     */
    BundlePtr peek(const std::string &key, Outcome *outcome = nullptr);

    /**
     * Publish an already-computed bundle under `key` (the streaming
     * miss path). A no-op when the key is already resident or in
     * flight — equal keys hold byte-identical bundles, so whichever
     * copy landed first is as good. Evictions are reported through
     * `outcome`; the miss itself was counted by the preceding peek().
     */
    void publish(const std::string &key, BundlePtr value,
                 Outcome *outcome = nullptr);

    bool enabled() const { return hot_.capacity() > 0; }
    /** Hot-tier entry budget (the legacy `capacity` knob). */
    std::size_t capacity() const { return hot_.capacity(); }
    std::size_t secondaryCapacityBytes() const
    {
        return secondary_ ? secondary_->capacityBytes() : 0;
    }

    /** Resident bundles across all tiers. */
    std::size_t size() const;

    /** Lifetime hit/miss/eviction totals (cache-level). */
    Counters counters() const;

    /** Per-tier stats + promotion/demotion traffic. */
    TieredCounters tiered() const;

  private:
    using Displaced = CacheTier::Displaced;

    /**
     * Probe hot then secondary; a secondary hit re-promotes into the
     * hot tier. Entries evicted out of the cache by the promotion are
     * added to *evictions. Caller holds flight_mu_.
     */
    BundlePtr lookupTiers(const std::string &key,
                          std::uint64_t *evictions,
                          Outcome::Source *source = nullptr);

    /**
     * Admit `value` into the hot tier and demote its victims into the
     * secondary tier. Returns how many entries left the cache
     * entirely (secondary evictions/rejections, or hot victims with
     * no secondary to land in). With a secondary tier the caller
     * holds flight_mu_.
     */
    std::uint64_t admit(const std::string &key, BundlePtr value);

    ClockCacheTier hot_;
    std::unique_ptr<SecondaryTier> secondary_;

    /**
     * Single-flight table: keys whose first computation is still
     * running. Entries are admitted to the hot tier *before* the
     * flight is erased, so a lookup that misses the table finds the
     * tiers already populated.
     *
     * The mutex also covers every tier transfer (admission with its
     * demotions, secondary hit with its re-promotion). A moving key
     * is briefly in neither tier; under the lock, the miss path's
     * re-probe never sees that gap, so a resident key is never
     * recomputed. Lock-free hot hits stay outside it, and so does
     * admission when there is no secondary tier to demote into.
     */
    std::mutex flight_mu_;
    std::unordered_map<std::string, std::shared_future<BundlePtr>>
        flights_;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> promotions_{0};
    std::atomic<std::uint64_t> demotions_{0};
};

/**
 * Trace-annotation name of a lookup source: "miss", "hot_hit",
 * "secondary_promote", "single_flight_wait".
 */
const char *cacheSourceName(RetrievalCache::Outcome::Source source);

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_CACHE_HH
