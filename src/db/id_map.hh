/**
 * @file
 * The trace table's dictionary: 64-bit values (PCs, addresses, lines)
 * to dense ids and back, through a flat open-addressed hash table.
 *
 * The database build interns the row's own pc and address, the
 * victim, and each set-snapshot entry that changed since the set's
 * previous snapshot, most of them already present. A node-based map
 * allocates and frees a node on every such repeat; here a repeat is
 * one hash and a short linear probe, with no allocation. Slots hold
 * only the 32-bit id and the key is compared through the dense
 * id -> value array the table needs anyway, so the index costs 4
 * bytes per slot. The slot count is a
 * power of two and doubles at 50% load, so probes stay short. Every
 * 64-bit key, including 0, is valid.
 */

#ifndef CACHEMIND_DB_ID_MAP_HH
#define CACHEMIND_DB_ID_MAP_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace cachemind::db {

/** uint64 <-> dense uint32 id; ids handed out in first-seen order. */
class IdMap
{
  public:
    /** Distinct keys interned so far (== the next id to hand out). */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(keys_.size());
    }

    /** The key with id `id`. */
    std::uint64_t operator[](std::uint32_t id) const { return keys_[id]; }

    /** Every key, indexed by id (first-seen order). */
    const std::vector<std::uint64_t> &keys() const { return keys_; }

    /** Id of `key`, assigning `size()` on first sight. */
    std::uint32_t
    intern(std::uint64_t key)
    {
        if (2 * (keys_.size() + 1) > slots_.size())
            grow();
        std::uint32_t &slot = slots_[probe(key)];
        if (slot == kEmpty) {
            slot = size();
            keys_.push_back(key);
        }
        return slot;
    }

    /** Id of `key`; nullopt when it was never interned. */
    std::optional<std::uint32_t>
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return std::nullopt;
        const std::uint32_t id = slots_[probe(key)];
        if (id == kEmpty)
            return std::nullopt;
        return id;
    }

  private:
    static constexpr std::uint32_t kEmpty = 0xffffffffu;

    /**
     * Index of the slot holding `key`, or of the empty slot where it
     * belongs. Fibonacci hashing picks the home slot: the top bits of
     * the product, which every key bit feeds.
     */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
        while (slots_[i] != kEmpty && keys_[slots_[i]] != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        shift_ = slots_.empty() ? 60 : shift_ - 1;
        slots_.assign(std::size_t{1} << (64 - shift_), kEmpty);
        for (std::uint32_t id = 0; id < size(); ++id)
            slots_[probe(keys_[id])] = id;
    }

    /** Slot -> id, or kEmpty. */
    std::vector<std::uint32_t> slots_;
    /** Id -> key. */
    std::vector<std::uint64_t> keys_;
    /** 64 - log2(slots_.size()) once slots are allocated. */
    unsigned shift_ = 64;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_ID_MAP_HH
