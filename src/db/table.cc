#include "db/table.hh"

#include <algorithm>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "db/index.hh"

namespace cachemind::db {

// Out of line: LazyIndex holds a unique_ptr<TraceIndex>, so these
// need TraceIndex complete (db/index.hh is a .cc-only include).
TraceTable::TraceTable() : lazy_(std::make_unique<LazyIndex>()) {}
TraceTable::~TraceTable() = default;
TraceTable::TraceTable(TraceTable &&) noexcept = default;
TraceTable &TraceTable::operator=(TraceTable &&) noexcept = default;

const TraceIndex &
TraceTable::index() const
{
    const TraceIndex *idx = indexOrFallback();
    CM_ASSERT(idx != nullptr, "postings index build failed");
    return *idx;
}

const TraceIndex *
TraceTable::indexOrFallback() const
{
    std::call_once(lazy_->once, [this] {
        try {
            fail::maybeThrow("db.index_build");
            lazy_->index = std::make_unique<TraceIndex>(*this);
            lazy_->built.store(true, std::memory_order_release);
        } catch (...) {
            // The once_flag is flipped (the lambda returned), so the
            // failure is permanent for this table: concurrent and
            // future readers all take the scan path.
            lazy_->failed.store(true, std::memory_order_release);
        }
    });
    return lazy_->built.load(std::memory_order_acquire)
               ? lazy_->index.get()
               : nullptr;
}

bool
TraceTable::indexBuildFailed() const
{
    return lazy_->failed.load(std::memory_order_acquire);
}

const TraceIndex *
TraceTable::indexIfBuilt() const
{
    return lazy_->built.load(std::memory_order_acquire)
               ? lazy_->index.get()
               : nullptr;
}

void
TraceTable::beginBuild(std::size_t rows, const sim::CacheConfig &llc,
                       std::uint32_t history_len)
{
    line_bytes_ = llc.line_bytes;
    history_len_ = history_len;
    pc_id_.reserve(rows);
    addr_id_.reserve(rows);
    set_.reserve(rows);
    flags_.reserve(rows);
    miss_type_.reserve(rows);
    reuse_.reserve(rows);
    recency_.reserve(rows);
    evicted_reuse_.reserve(rows);
    evicted_line_id_.reserve(rows);
    evicted_pc_id_.reserve(rows);
    snap_off_.reserve(rows + 1);
    score_off_.reserve(rows + 1);
    snap_off_.assign(1, 0);
    score_off_.assign(1, 0);
    snap_pc_id_.reserve(rows * llc.ways);
    snap_line_id_.reserve(rows * llc.ways);
    scores_.reserve(rows * llc.ways);
    ways_ = llc.ways;
    snap_cache_.resize(static_cast<std::size_t>(llc.sets) * llc.ways);
    snap_filled_.assign(llc.sets, 0);
}

void
TraceTable::endBuild()
{
    ways_ = 0;
    std::vector<SnapSlot>().swap(snap_cache_);
    std::vector<std::uint32_t>().swap(snap_filled_);
}

namespace {

std::int64_t
toSigned(std::uint64_t v)
{
    return v == policy::kNoNextUse ? kNoValue
                                   : static_cast<std::int64_t>(v);
}

} // namespace

void
TraceTable::append(const sim::ReplayEvent &ev)
{
    CM_ASSERT(ev.set < snap_filled_.size() && ev.snapshot.size() <= ways_,
              "append outside beginBuild/endBuild, or a snapshot outside "
              "the LLC geometry given to beginBuild");
    pc_id_.push_back(pcs_.intern(ev.pc));
    addr_id_.push_back(addrs_.intern(ev.address));
    set_.push_back(ev.set);

    std::uint8_t flags = 0;
    if (!ev.hit)
        flags |= kMissBit;
    if (ev.bypassed)
        flags |= kBypassBit;
    if (ev.has_victim)
        flags |= kVictimBit;
    if (ev.wrong_eviction)
        flags |= kWrongBit;
    flags_.push_back(flags);
    miss_type_.push_back(static_cast<std::uint8_t>(ev.miss_type));

    reuse_.push_back(toSigned(ev.reuse_distance));
    recency_.push_back(toSigned(ev.recency));
    evicted_reuse_.push_back(toSigned(ev.evicted_reuse_distance));
    evicted_line_id_.push_back(
        ev.has_victim ? lines_.intern(ev.evicted_line) : 0);
    evicted_pc_id_.push_back(ev.has_victim ? pcs_.intern(ev.evicted_pc)
                                           : 0);

    SnapSlot *slots = &snap_cache_[static_cast<std::size_t>(ev.set) * ways_];
    std::uint32_t &filled = snap_filled_[ev.set];
    const auto n = static_cast<std::uint32_t>(ev.snapshot.size());
    for (std::uint32_t k = 0; k < n; ++k) {
        const sim::SnapshotEntry &entry = ev.snapshot[k];
        SnapSlot &slot = slots[k];
        if (k >= filled || slot.pc != entry.pc || slot.line != entry.line) {
            slot = SnapSlot{entry.pc, entry.line, pcs_.intern(entry.pc),
                            lines_.intern(entry.line)};
        }
        snap_pc_id_.push_back(slot.pc_id);
        snap_line_id_.push_back(slot.line_id);
    }
    filled = std::max(filled, n);
    snap_off_.push_back(static_cast<std::uint32_t>(snap_pc_id_.size()));

    for (const auto score : ev.scores) {
        scores_.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(score, 0xffffffffULL)));
    }
    score_off_.push_back(static_cast<std::uint32_t>(scores_.size()));
}

std::uint64_t
TraceTable::evictedAddressAt(std::size_t i) const
{
    if (!hasVictimAt(i))
        return 0;
    return lines_[evicted_line_id_[i]] * line_bytes_;
}

std::string
TraceTable::recencyTextAt(std::size_t i) const
{
    const std::int64_t r = recency_[i];
    if (r == kNoValue)
        return "first access";
    if (r <= 64)
        return "very recent";
    if (r <= 1024)
        return "recent";
    if (r <= 16384)
        return "distant";
    return "very distant";
}

const std::vector<std::uint64_t> &
TraceTable::uniquePcs() const
{
    if (const TraceIndex *idx = indexOrFallback())
        return idx->uniquePcs();
    ensureFallbackListings();
    return lazy_->fallback_pcs;
}

const std::vector<std::uint32_t> &
TraceTable::uniqueSets() const
{
    if (const TraceIndex *idx = indexOrFallback())
        return idx->uniqueSets();
    ensureFallbackListings();
    return lazy_->fallback_sets;
}

void
TraceTable::ensureFallbackListings() const
{
    std::call_once(lazy_->fallback_once, [this] {
        lazy_->fallback_pcs = uniquePcsScan();
        lazy_->fallback_sets = uniqueSetsScan();
    });
}

std::vector<std::uint64_t>
TraceTable::uniquePcsScan() const
{
    std::vector<std::uint64_t> pcs = pcs_.keys();
    std::sort(pcs.begin(), pcs.end());
    return pcs;
}

std::vector<std::uint32_t>
TraceTable::uniqueSetsScan() const
{
    // Size the seen-bitmap once (it used to grow incrementally,
    // reallocating on every new high-water set id).
    std::uint32_t max_set = 0;
    for (const auto s : set_)
        max_set = std::max(max_set, s);
    std::vector<bool> seen(set_.empty() ? 0 : max_set + 1u, false);
    std::vector<std::uint32_t> out;
    for (const auto s : set_) {
        if (!seen[s]) {
            seen[s] = true;
            out.push_back(s);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
TraceTable::containsPc(std::uint64_t pc) const
{
    return pcs_.find(pc).has_value();
}

bool
TraceTable::containsAddress(std::uint64_t address) const
{
    return addrs_.find(address).has_value();
}

std::optional<std::uint32_t>
TraceTable::pcIdOf(std::uint64_t pc) const
{
    return pcs_.find(pc);
}

std::optional<std::uint32_t>
TraceTable::addrIdOf(std::uint64_t address) const
{
    return addrs_.find(address);
}

std::vector<std::uint32_t>
TraceTable::filter(const std::uint64_t *pc, const std::uint64_t *address,
                   std::size_t limit) const
{
    if (!pc && !address)
        return filterScan(pc, address, limit);

    const auto pc_id = pc ? pcIdOf(*pc) : std::nullopt;
    if (pc && !pc_id)
        return {};
    const auto addr_id = address ? addrIdOf(*address) : std::nullopt;
    if (address && !addr_id)
        return {};

    const TraceIndex *idx_ptr = indexOrFallback();
    if (!idx_ptr)
        return filterScan(pc, address, limit);
    const TraceIndex &idx = *idx_ptr;
    if (pc_id && addr_id) {
        const PostingsList a = idx.pcPostings(*pc_id);
        const PostingsList b = idx.addrPostings(*addr_id);
        std::vector<std::uint32_t> out;
        idx.intersect(a, b, limit, out);
        idx.noteLookup(std::min(a.size(), b.size()));
        return out;
    }

    const PostingsList post =
        pc_id ? idx.pcPostings(*pc_id) : idx.addrPostings(*addr_id);
    const std::size_t take =
        limit ? std::min(limit, post.size()) : post.size();
    std::vector<std::uint32_t> out;
    decodeList(post, out, take);
    idx.noteLookup(take);
    return out;
}

std::vector<std::uint32_t>
TraceTable::filterScan(const std::uint64_t *pc,
                       const std::uint64_t *address,
                       std::size_t limit) const
{
    std::vector<std::uint32_t> out;
    const auto pc_id = pc ? pcIdOf(*pc) : std::nullopt;
    if (pc && !pc_id)
        return out;
    const auto addr_id = address ? addrIdOf(*address) : std::nullopt;
    if (address && !addr_id)
        return out;
    for (std::size_t i = 0; i < size(); ++i) {
        if (pc && pc_id_[i] != *pc_id)
            continue;
        if (address && addr_id_[i] != *addr_id)
            continue;
        out.push_back(static_cast<std::uint32_t>(i));
        if (limit && out.size() >= limit)
            break;
    }
    return out;
}

AccessRow
TraceTable::row(std::size_t i) const
{
    CM_ASSERT(i < size(), "row index out of range");
    AccessRow r;
    r.index = i;
    r.program_counter = pcAt(i);
    r.memory_address = addressAt(i);
    r.cache_set_id = set_[i];
    r.is_miss = isMissAt(i);
    r.bypassed = bypassedAt(i);
    r.miss_type = missTypeAt(i);
    r.has_victim = hasVictimAt(i);
    r.evicted_address = evictedAddressAt(i);
    r.accessed_reuse_distance = reuse_[i];
    r.accessed_recency = recency_[i];
    r.evicted_reuse_distance = evicted_reuse_[i];
    r.wrong_eviction = wrongEvictionAt(i);
    r.recency_text = recencyTextAt(i);

    if (symbols_) {
        r.function_name = symbols_->functionName(r.program_counter);
        r.function_code = symbols_->sourceFor(r.program_counter);
        r.assembly_code =
            symbols_->assemblyAround(r.program_counter);
    }

    for (std::uint32_t k = snap_off_[i]; k < snap_off_[i + 1]; ++k) {
        r.current_cache_lines.push_back(
            PcAddr{pcs_[snap_pc_id_[k]],
                   lines_[snap_line_id_[k]] * line_bytes_});
    }
    for (std::uint32_t k = score_off_[i]; k < score_off_[i + 1]; ++k)
        r.cache_line_eviction_scores.push_back(scores_[k]);

    for (std::size_t j = i - std::min<std::size_t>(i, history_len_);
         j < i; ++j)
        r.recent_access_history.push_back(PcAddr{pcAt(j), addressAt(j)});
    return r;
}

} // namespace cachemind::db
