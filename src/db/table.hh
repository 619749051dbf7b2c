/**
 * @file
 * The per-trace "dataframe" of the external database (§4.3).
 *
 * Storage is columnar with interned dictionaries for PCs, addresses,
 * and lines (flat IdMaps, db/id_map.hh) so that a full 12-table
 * database stays within a few hundred megabytes. Row materialisation
 * (AccessRow) renders the source-level string columns (function
 * name/code, disassembly, textual recency) on demand from the
 * workload's symbol table, which keeps identical rows byte-identical
 * — required for exact-match grading in CacheMindBench.
 */

#ifndef CACHEMIND_DB_TABLE_HH
#define CACHEMIND_DB_TABLE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/id_map.hh"
#include "sim/llc_replay.hh"
#include "trace/symbols.hh"

namespace cachemind::db {

class TraceIndex;

/** Numeric sentinel for "no value" (-1 in the paper's dataframes). */
constexpr std::int64_t kNoValue = -1;

/** One (pc, address) pair in snapshot/history columns. */
struct PcAddr
{
    std::uint64_t pc = 0;
    std::uint64_t address = 0;

    bool
    operator==(const PcAddr &other) const
    {
        return pc == other.pc && address == other.address;
    }
};

/** Fully materialised row (all §4.3 columns). */
struct AccessRow
{
    std::uint64_t index = 0;
    std::uint64_t program_counter = 0;
    std::uint64_t memory_address = 0;
    std::uint32_t cache_set_id = 0;
    /** true = Cache Miss (the paper's `evict` column semantics). */
    bool is_miss = false;
    bool bypassed = false;
    sim::MissType miss_type = sim::MissType::None;

    bool has_victim = false;
    /** Base byte address of the evicted line (0 when none). */
    std::uint64_t evicted_address = 0;

    std::int64_t accessed_reuse_distance = kNoValue;
    std::int64_t accessed_recency = kNoValue;
    std::int64_t evicted_reuse_distance = kNoValue;
    bool wrong_eviction = false;

    /** Textual recency descriptor (schema's accessed_address_recency). */
    std::string recency_text;
    std::string function_name;
    std::string function_code;
    std::string assembly_code;

    std::vector<PcAddr> current_cache_lines;
    std::vector<std::uint64_t> cache_line_eviction_scores;
    std::vector<PcAddr> recent_access_history;
};

/** Columnar per-trace table. */
class TraceTable
{
  public:
    TraceTable();
    ~TraceTable();
    // Move-only: the lazy postings index holds a once_flag. Moves are
    // build-phase only (single-threaded), like all table mutation.
    TraceTable(TraceTable &&) noexcept;
    TraceTable &operator=(TraceTable &&) noexcept;
    TraceTable(const TraceTable &) = delete;
    TraceTable &operator=(const TraceTable &) = delete;

    /** Symbol table used to render string columns (non-owning). */
    void setSymbols(const trace::SymbolTable *symbols)
    {
        symbols_ = symbols;
    }
    const trace::SymbolTable *symbols() const { return symbols_; }

    /**
     * Prepare an empty table for `rows` appends of events replayed
     * through `llc`, whose line size renders line base addresses;
     * each row's history holds up to `history_len` previous rows.
     * Reserves every column, and the snapshot and score pools at
     * `ways` entries per row (a snapshot holds at most one entry per
     * way), and allocates the build-only per-set snapshot cache that
     * lets append() skip re-interning unchanged entries. endBuild()
     * frees the cache.
     */
    void beginBuild(std::size_t rows, const sim::CacheConfig &llc,
                    std::uint32_t history_len);

    /**
     * Append one replay event; only between beginBuild() and
     * endBuild(). A snapshot entry is interned only when it differs
     * from the same position of that set's previous snapshot; an
     * unchanged one reuses the ids interned then, so no skipped
     * intern could have created an id and every dictionary stays in
     * first-seen order.
     */
    void append(const sim::ReplayEvent &ev);

    /** Free the build-only snapshot cache; no append follows. */
    void endBuild();

    std::size_t size() const { return pc_id_.size(); }
    bool empty() const { return pc_id_.empty(); }

    // ----- Fast columnar accessors (no string work) -----
    std::uint64_t pcAt(std::size_t i) const { return pcs_[pc_id_[i]]; }
    std::uint64_t addressAt(std::size_t i) const
    {
        return addrs_[addr_id_[i]];
    }
    std::uint32_t setAt(std::size_t i) const { return set_[i]; }
    bool isMissAt(std::size_t i) const { return flagAt(i, kMissBit); }
    bool bypassedAt(std::size_t i) const
    {
        return flagAt(i, kBypassBit);
    }
    bool hasVictimAt(std::size_t i) const
    {
        return flagAt(i, kVictimBit);
    }
    bool wrongEvictionAt(std::size_t i) const
    {
        return flagAt(i, kWrongBit);
    }
    sim::MissType missTypeAt(std::size_t i) const
    {
        return static_cast<sim::MissType>(miss_type_[i]);
    }
    /** Forward reuse distance in LLC accesses (kNoValue if none). */
    std::int64_t reuseDistanceAt(std::size_t i) const
    {
        return reuse_[i];
    }
    /** Backward recency in LLC accesses (kNoValue on first touch). */
    std::int64_t recencyAt(std::size_t i) const { return recency_[i]; }
    std::int64_t evictedReuseDistanceAt(std::size_t i) const
    {
        return evicted_reuse_[i];
    }
    /** Base byte address of the victim line (0 when none). */
    std::uint64_t evictedAddressAt(std::size_t i) const;
    std::uint64_t evictedPcAt(std::size_t i) const
    {
        return hasVictimAt(i) ? pcs_[evicted_pc_id_[i]] : 0;
    }

    /** Textual recency descriptor used in the string column. */
    std::string recencyTextAt(std::size_t i) const;

    /**
     * Unique PCs appearing in the table, ascending — served from the
     * postings index's build-time cache (no per-call sort).
     */
    const std::vector<std::uint64_t> &uniquePcs() const;
    /** Unique sets touched, ascending (index-cached, no re-sort). */
    const std::vector<std::uint32_t> &uniqueSets() const;

    /** Reference O(n) unique-PC listing (equivalence tests). */
    std::vector<std::uint64_t> uniquePcsScan() const;
    /** Reference O(n) unique-set listing (equivalence tests). */
    std::vector<std::uint32_t> uniqueSetsScan() const;

    /** Does this exact (pc) appear anywhere? O(1). */
    bool containsPc(std::uint64_t pc) const;
    /** Does this exact (address) appear anywhere? O(1). */
    bool containsAddress(std::uint64_t address) const;

    /** Dictionary id for a PC value; nullopt when absent. */
    std::optional<std::uint32_t> pcIdOf(std::uint64_t pc) const;
    /** Dictionary id for an address value; nullopt when absent. */
    std::optional<std::uint32_t> addrIdOf(std::uint64_t address) const;

    /** Dictionary keys by id (first-seen order): PCs, addresses and
     *  line numbers. */
    const std::vector<std::uint64_t> &pcKeys() const
    {
        return pcs_.keys();
    }
    const std::vector<std::uint64_t> &addrKeys() const
    {
        return addrs_.keys();
    }
    const std::vector<std::uint64_t> &lineKeys() const
    {
        return lines_.keys();
    }

    /**
     * Row indices matching optional pc/address filters, ascending.
     * Served from the postings index (lookup or adaptive kernel
     * intersection) — byte-identical to filterScan, sublinear in the
     * table size. Row ids are uint32 to match the postings width.
     */
    std::vector<std::uint32_t>
    filter(const std::uint64_t *pc, const std::uint64_t *address,
           std::size_t limit = 0) const;

    /**
     * Reference O(n) row walk with identical semantics to filter():
     * the pre-index scan path, kept for equivalence tests and
     * scan-mode retrievers (never touches the index).
     */
    std::vector<std::uint32_t>
    filterScan(const std::uint64_t *pc, const std::uint64_t *address,
               std::size_t limit = 0) const;

    /**
     * The table's postings index, built lazily exactly once under a
     * once_flag (same pattern as the shard's StatsExpert) — safe to
     * hit from any number of concurrent readers. Asserts that the
     * build succeeded; callers that can degrade should use
     * indexOrFallback() instead.
     */
    const TraceIndex &index() const;
    /**
     * The postings index, or nullptr when its one-time build failed
     * (fault injection, resource exhaustion). Failure is sticky: the
     * build is never retried, so every reader of this table degrades
     * to the reference scan path consistently instead of flapping
     * between indexed and scanned answers.
     */
    const TraceIndex *indexOrFallback() const;
    /** Did the one-time index build fail for good? */
    bool indexBuildFailed() const;
    /** The index if some reader already built it; nullptr otherwise. */
    const TraceIndex *indexIfBuilt() const;

    /** Materialise a full row with all string columns. */
    AccessRow row(std::size_t i) const;

  private:
    friend class TraceIndex;
    static constexpr std::uint8_t kMissBit = 1 << 0;
    static constexpr std::uint8_t kBypassBit = 1 << 1;
    static constexpr std::uint8_t kVictimBit = 1 << 2;
    static constexpr std::uint8_t kWrongBit = 1 << 3;

    bool
    flagAt(std::size_t i, std::uint8_t bit) const
    {
        return (flags_[i] & bit) != 0;
    }

    const trace::SymbolTable *symbols_ = nullptr;
    std::uint32_t line_bytes_ = 64;

    // Dictionaries (value <-> dense id, first-seen order).
    IdMap pcs_;
    IdMap addrs_;
    IdMap lines_;

    // Core columns.
    std::vector<std::uint32_t> pc_id_;
    std::vector<std::uint32_t> addr_id_;
    std::vector<std::uint32_t> set_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> miss_type_;
    std::vector<std::int64_t> reuse_;
    std::vector<std::int64_t> recency_;
    std::vector<std::int64_t> evicted_reuse_;
    std::vector<std::uint32_t> evicted_line_id_;
    std::vector<std::uint32_t> evicted_pc_id_;

    // Snapshot pools: [snap_off_[i], snap_off_[i+1]) slices.
    std::vector<std::uint32_t> snap_off_;
    std::vector<std::uint32_t> snap_pc_id_;
    std::vector<std::uint32_t> snap_line_id_;
    std::vector<std::uint32_t> score_off_;
    std::vector<std::uint32_t> scores_;

    // History cells are not stored: row i's history is rows
    // max(0, i - history_len_)..i-1, read back from the core columns.
    std::uint32_t history_len_ = 0;

    /** One entry of a set's previous snapshot, with its ids. */
    struct SnapSlot
    {
        std::uint64_t pc = 0;
        std::uint64_t line = 0;
        std::uint32_t pc_id = 0;
        std::uint32_t line_id = 0;
    };
    // Build-only snapshot cache (beginBuild .. endBuild): ways_ slots
    // per set, of which snap_filled_[set] hold interned entries.
    std::uint32_t ways_ = 0;
    std::vector<SnapSlot> snap_cache_;
    std::vector<std::uint32_t> snap_filled_;

    /**
     * Lazily built postings index. Heap-allocated so the table stays
     * movable during the single-threaded build phase; the once_flag
     * makes the build race-free once concurrent readers arrive.
     */
    struct LazyIndex
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        /** Build threw; sticky — readers use the scan path forever. */
        std::atomic<bool> failed{false};
        std::unique_ptr<TraceIndex> index;
        /**
         * Scan-computed unique listings, built once on the first
         * uniquePcs()/uniqueSets() call after a failed index build so
         * the by-reference listing accessors keep working (and stay
         * byte-identical to the index's build-time cache).
         */
        std::once_flag fallback_once;
        std::vector<std::uint64_t> fallback_pcs;
        std::vector<std::uint32_t> fallback_sets;
    };
    mutable std::unique_ptr<LazyIndex> lazy_;

    /** Populate the fallback listings exactly once. */
    void ensureFallbackListings() const;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_TABLE_HH
