#include "retrieval/cache.hh"

#include <utility>
#include <vector>

namespace cachemind::retrieval {

RetrievalCache::RetrievalCache(const Options &options)
    : hot_(options.capacity, options.hot_slots),
      secondary_(options.capacity > 0 &&
                         options.secondary_capacity_bytes > 0
                     ? std::make_unique<SecondaryTier>(
                           options.secondary_capacity_bytes)
                     : nullptr)
{
}

std::uint64_t
RetrievalCache::admit(const std::string &key, BundlePtr value)
{
    std::uint64_t gone = 0;
    for (Displaced &d : hot_.insert(key, std::move(value))) {
        if (!secondary_ || !d.value) {
            ++gone;
            continue;
        }
        bool rejected = false;
        for (Displaced &sd :
             secondary_->insert(d.key, std::move(d.value))) {
            ++gone;
            if (sd.key == d.key)
                rejected = true;
        }
        if (!rejected)
            demotions_.fetch_add(1, std::memory_order_relaxed);
    }
    return gone;
}

RetrievalCache::BundlePtr
RetrievalCache::lookupTiers(const std::string &key,
                            std::uint64_t *evictions,
                            Outcome::Source *source)
{
    if (BundlePtr v = hot_.lookup(key)) {
        if (source)
            *source = Outcome::Source::Hot;
        return v;
    }
    if (!secondary_)
        return nullptr;
    BundlePtr v = secondary_->lookup(key);
    if (!v)
        return nullptr;
    // Exclusive tiers: the secondary released its copy; re-promote it
    // so the next lookup is a lock-free hot hit.
    promotions_.fetch_add(1, std::memory_order_relaxed);
    *evictions += admit(key, v);
    if (source)
        *source = Outcome::Source::Secondary;
    return v;
}

RetrievalCache::BundlePtr
RetrievalCache::getOrCompute(const std::string &key,
                             const ComputeFn &compute, Outcome *outcome)
{
    if (outcome)
        *outcome = Outcome{};
    if (!enabled())
        return compute();

    // Fast path: lock-free hot probe before any single-flight
    // bookkeeping.
    if (BundlePtr v = hot_.lookup(key)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (outcome) {
            outcome->hit = true;
            outcome->source = Outcome::Source::Hot;
        }
        return v;
    }

    std::unique_lock<std::mutex> lock(flight_mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
        // Another worker is assembling this bundle right now; wait on
        // its in-flight computation instead of re-running retrieval.
        std::shared_future<BundlePtr> pending = it->second;
        hits_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        if (outcome) {
            outcome->hit = true;
            outcome->source = Outcome::Source::Flight;
        }
        return pending.get();
    }
    // Re-probe under the flight lock. Flights admit before they erase
    // their table entry, and every tier transfer runs under this
    // lock, so a resident key is in some tier now.
    std::uint64_t evicted = 0;
    Outcome::Source source = Outcome::Source::None;
    if (BundlePtr v = lookupTiers(key, &evicted, &source)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        evictions_.fetch_add(evicted, std::memory_order_relaxed);
        lock.unlock();
        if (outcome) {
            outcome->hit = true;
            outcome->evictions = evicted;
            outcome->source = source;
        }
        return v;
    }

    // Miss: claim the key, then compute outside every lock so other
    // keys keep flowing.
    std::promise<BundlePtr> promise;
    flights_.emplace(key, promise.get_future().share());
    misses_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    BundlePtr value;
    try {
        value = compute();
    } catch (...) {
        lock.lock();
        flights_.erase(key);
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
    }

    // Admit before erasing the flight: a lookup that misses the
    // flight table must find the tiers already populated. Degraded
    // (deadline-truncated) bundles are returned to their caller but
    // never admitted — they would poison every later request. Only
    // with a secondary tier does admission move keys between tiers
    // (demotions), so only then does it need flight_mu_.
    if (secondary_)
        lock.lock();
    evicted = (value && value->degraded) ? 0 : admit(key, value);
    if (!lock.owns_lock())
        lock.lock();
    flights_.erase(key);
    lock.unlock();
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    promise.set_value(value);

    if (outcome)
        outcome->evictions = evicted;
    return value;
}

RetrievalCache::BundlePtr
RetrievalCache::peek(const std::string &key, Outcome *outcome)
{
    if (outcome)
        *outcome = Outcome{};
    if (!enabled())
        return nullptr;
    std::uint64_t evicted = 0;
    Outcome::Source source = Outcome::Source::Hot;
    BundlePtr v = hot_.lookup(key);
    if (!v && secondary_) {
        std::lock_guard<std::mutex> lock(flight_mu_);
        v = lookupTiers(key, &evicted, &source);
    }
    if (!v) {
        // Absent, or another flight is still assembling it: the
        // streaming caller retrieves on its own rather than waiting.
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (outcome) {
        outcome->hit = true;
        outcome->evictions = evicted;
        outcome->source = source;
    }
    return v;
}

void
RetrievalCache::publish(const std::string &key, BundlePtr value,
                        Outcome *outcome)
{
    if (outcome)
        *outcome = Outcome{};
    if (!enabled())
        return;
    if (value && value->degraded)
        return; // deadline-truncated evidence must never be shared
    std::unique_lock<std::mutex> lock(flight_mu_);
    if (flights_.count(key))
        return; // the flight publishes when it lands
    if (!secondary_)
        lock.unlock(); // no demotions, so no tier transfer to cover
    // Resident keys dedupe inside the tiers (first copy wins).
    const std::uint64_t evicted = admit(key, std::move(value));
    if (lock.owns_lock())
        lock.unlock();
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (outcome)
        outcome->evictions = evicted;
}

std::size_t
RetrievalCache::size() const
{
    return hot_.entries() + (secondary_ ? secondary_->entries() : 0);
}

RetrievalCache::Counters
RetrievalCache::counters() const
{
    Counters total;
    total.hits = hits_.load(std::memory_order_relaxed);
    total.misses = misses_.load(std::memory_order_relaxed);
    total.evictions = evictions_.load(std::memory_order_relaxed);
    return total;
}

RetrievalCache::TieredCounters
RetrievalCache::tiered() const
{
    TieredCounters t;
    t.hot = hot_.stats();
    if (secondary_) {
        t.secondary = secondary_->stats();
        t.secondary_enabled = true;
    }
    t.promotions = promotions_.load(std::memory_order_relaxed);
    t.demotions = demotions_.load(std::memory_order_relaxed);
    return t;
}

const char *
cacheSourceName(RetrievalCache::Outcome::Source source)
{
    switch (source) {
      case RetrievalCache::Outcome::Source::None: return "miss";
      case RetrievalCache::Outcome::Source::Hot: return "hot_hit";
      case RetrievalCache::Outcome::Source::Secondary:
          return "secondary_promote";
      case RetrievalCache::Outcome::Source::Flight:
          return "single_flight_wait";
    }
    return "?";
}

} // namespace cachemind::retrieval
