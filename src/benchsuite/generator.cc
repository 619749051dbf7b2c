#include "benchsuite/generator.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"

namespace cachemind::benchsuite {

namespace {

/** Uppercase display form of a policy name ("PARROT", "LRU"). */
std::string
policyDisplay(const std::string &policy)
{
    std::string out = policy;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                   });
    if (out == "BELADY")
        return "Belady";
    return out;
}

} // namespace

BenchGenerator::BenchGenerator(db::ShardSet shards, std::uint64_t seed,
                               SuiteComposition composition)
    : db_(std::move(shards)), seed_(seed), comp_(composition)
{
    CM_ASSERT(db_.size() > 0, "benchmark needs a non-empty database");
}

std::vector<Question>
BenchGenerator::generate() const
{
    std::vector<Question> out;
    std::size_t id = 0;
    auto extend = [&out, &id](std::vector<Question> qs) {
        for (auto &q : qs) {
            q.id = id++;
            out.push_back(std::move(q));
        }
    };
    extend(makeHitMiss(comp_.hit_miss, id));
    extend(makeMissRate(comp_.miss_rate, id));
    extend(makePolicyComparison(comp_.policy_comparison, id));
    extend(makeCount(comp_.count, id));
    extend(makeArithmetic(comp_.arithmetic, id));
    extend(makeTrick(comp_.trick, id));
    extend(makeConcepts(comp_.concepts, id));
    extend(makeCodeGen(comp_.code_gen, id));
    extend(makePolicyAnalysis(comp_.policy_analysis, id));
    extend(makeWorkloadAnalysis(comp_.workload_analysis, id));
    extend(makeSemanticAnalysis(comp_.semantic_analysis, id));
    return out;
}

std::vector<Question>
BenchGenerator::makeHitMiss(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x11));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 400) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        const auto &table = entry->table;
        if (table.empty())
            continue;
        const std::size_t i = rng.nextBelow(table.size());
        const std::uint64_t pc = table.pcAt(i);
        const std::uint64_t addr = table.addressAt(i);
        // Require a consistent outcome across every occurrence of the
        // (pc, address) pair so the gold is unambiguous.
        const auto rows = table.filter(&pc, &addr);
        bool consistent = true;
        for (const auto r : rows) {
            if (table.isMissAt(r) != table.isMissAt(rows[0]))
                consistent = false;
        }
        if (!consistent || rows.empty())
            continue;
        Question q;
        q.category = Category::HitMiss;
        q.trace_key = key;
        std::ostringstream os;
        os << "Does the memory access with PC " << str::hex(pc)
           << " and address " << str::hex(addr)
           << " result in a cache hit or cache miss for the "
           << entry->workload << " workload and "
           << policyDisplay(entry->policy) << " replacement policy?";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.is_hit = !table.isMissAt(rows[0]);
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n, "could not generate hit/miss questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeMissRate(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x22));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 400) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        const auto *expert = db_.statsFor(key);
        const auto &pcs = entry->table.uniquePcs();
        if (pcs.empty())
            continue;
        const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
        const auto stats = expert->pcStats(pc);
        if (!stats || stats->accesses < 50)
            continue;
        Question q;
        q.category = Category::MissRate;
        q.trace_key = key;
        std::ostringstream os;
        os << "What is the miss rate for PC " << str::hex(pc)
           << " in the " << entry->workload << " workload with "
           << policyDisplay(entry->policy) << "?";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.number = stats->missRate();
        q.gold.abs_tolerance = 0.005;
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n, "could not generate miss-rate questions");
    return out;
}

std::vector<Question>
BenchGenerator::makePolicyComparison(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    // The text is injective in (workload, lowest, per_pc, pc), so
    // deduplicating the tuple deduplicates the questions without
    // formatting the ones that would be rejected.
    std::set<std::tuple<std::size_t, bool, bool, std::uint64_t>> used;
    Rng rng(hashCombine(seed_, 0x33));
    const auto workloads = db_.workloads();
    const auto policies = db_.policies();
    // Resolve every shard the loop reads once, not per candidate.
    std::vector<const db::TraceEntry *> firsts;
    std::vector<const db::StatsExpert *> experts;
    for (const auto &workload : workloads) {
        firsts.push_back(db_.find(workload, policies[0]));
        for (const auto &policy : policies)
            experts.push_back(db_.statsFor(db::shardKey(workload, policy)));
    }
    // (policy index, miss rate), reused across candidates.
    std::vector<std::pair<std::size_t, double>> rates;
    std::size_t guard = 0;
    const std::size_t guard_limit = n * 6000;
    while (out.size() < n && guard++ < guard_limit) {
        // Progressively relax the winner margin when the candidate
        // space is tight for this database build.
        const double margin = guard < guard_limit / 3 ? 0.01
                              : guard < 2 * guard_limit / 3
                                  ? 0.002
                                  : 1e-9;
        const std::size_t w = rng.nextBelow(workloads.size());
        const bool per_pc = rng.nextBool(0.7);
        const bool lowest = rng.nextBool(0.6);
        const auto *const *workload_experts =
            &experts[w * policies.size()];

        rates.clear();
        std::uint64_t pc = 0;
        if (per_pc) {
            // A PC present under every policy of the workload.
            if (!firsts[w])
                continue;
            const auto &pcs = firsts[w]->table.uniquePcs();
            pc = pcs[rng.nextBelow(pcs.size())];
            bool ok = true;
            for (std::size_t p = 0; p < policies.size(); ++p) {
                if (!workload_experts[p]) {
                    ok = false;
                    break;
                }
                const auto stats = workload_experts[p]->pcStats(pc);
                if (!stats || stats->accesses < 30) {
                    ok = false;
                    break;
                }
                rates.emplace_back(p, stats->missRate());
            }
            if (!ok)
                continue;
        } else {
            for (std::size_t p = 0; p < policies.size(); ++p) {
                if (workload_experts[p])
                    rates.emplace_back(
                        p, workload_experts[p]->summary().missRate());
            }
            if (rates.size() < 2)
                continue;
        }
        std::sort(rates.begin(), rates.end(),
                  [](const auto &a, const auto &b) {
                      return a.second < b.second;
                  });
        // Require an unambiguous winner with the current margin.
        if (lowest) {
            if (rates[1].second - rates[0].second < margin)
                continue;
        } else {
            if (rates[rates.size() - 1].second -
                    rates[rates.size() - 2].second < margin) {
                continue;
            }
        }
        if (!used.emplace(w, lowest, per_pc, pc).second)
            continue;
        const auto &workload = workloads[w];
        Question q;
        q.category = Category::PolicyComparison;
        q.trace_key = db::shardKey(workload, "lru");
        std::ostringstream os;
        os << "Which policy has the " << (lowest ? "lowest" : "highest")
           << " miss rate ";
        if (per_pc)
            os << "for PC " << str::hex(pc) << " ";
        os << "in the " << workload << " workload?";
        q.text = os.str();
        q.gold.policy =
            policies[lowest ? rates.front().first : rates.back().first];
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n,
              "could not generate policy-comparison questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeCount(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x44));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 400) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        const auto *expert = db_.statsFor(key);
        const auto &pcs = entry->table.uniquePcs();
        if (pcs.empty())
            continue;
        const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
        const auto stats = expert->pcStats(pc);
        // Interesting counts: beyond any plausible context window.
        if (!stats || stats->accesses < 100)
            continue;
        Question q;
        q.category = Category::Count;
        q.trace_key = key;
        std::ostringstream os;
        os << "How many times did PC " << str::hex(pc)
           << " appear in the " << entry->workload << " workload under "
           << policyDisplay(entry->policy) << "?";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.number = static_cast<double>(stats->accesses);
        q.gold.abs_tolerance = 0.0;
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n, "could not generate count questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeArithmetic(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x55));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 600) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        const auto *expert = db_.statsFor(key);
        const auto &pcs = entry->table.uniquePcs();
        if (pcs.empty())
            continue;
        const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
        const auto stats = expert->pcStats(pc);
        if (!stats || stats->accesses < 100)
            continue;

        // Rotate across aggregate flavours: some are answerable from
        // per-PC statistics (mean/std), others need full-slice scans
        // (max/min/sum) that only executed programs can do.
        const std::size_t flavour = out.size() % 5;
        Question q;
        q.category = Category::Arithmetic;
        q.trace_key = key;
        std::ostringstream os;
        double gold = 0.0;
        const std::uint64_t pc_copy = pc;
        auto scan = [&](auto fn) {
            const auto rows = entry->table.filter(&pc_copy, nullptr);
            for (const auto r : rows)
                fn(r);
        };
        switch (flavour) {
          case 0: {
            if (stats->mean_evicted_reuse_distance <= 0.0)
                continue;
            os << "What is the average evicted reuse distance of PC "
               << str::hex(pc) << " for the " << entry->workload
               << " workload with " << policyDisplay(entry->policy)
               << "?";
            gold = stats->mean_evicted_reuse_distance;
            break;
          }
          case 1: {
            if (stats->reuse_distance_stdev <= 0.0)
                continue;
            os << "What is the standard deviation of the reuse "
                  "distance of PC "
               << str::hex(pc) << " in the " << entry->workload
               << " workload under " << policyDisplay(entry->policy)
               << "?";
            gold = stats->reuse_distance_stdev;
            break;
          }
          case 2: {
            double mx = -1.0;
            scan([&](std::size_t r) {
                const auto v = entry->table.reuseDistanceAt(r);
                if (v != db::kNoValue)
                    mx = std::max(mx, static_cast<double>(v));
            });
            if (mx < 1.0)
                continue;
            os << "What is the maximum reuse distance observed for PC "
               << str::hex(pc) << " in the " << entry->workload
               << " workload under " << policyDisplay(entry->policy)
               << "?";
            gold = mx;
            break;
          }
          case 3: {
            double sum = 0.0;
            bool any = false;
            scan([&](std::size_t r) {
                const auto v =
                    entry->table.evictedReuseDistanceAt(r);
                if (v != db::kNoValue) {
                    sum += static_cast<double>(v);
                    any = true;
                }
            });
            if (!any || sum < 1.0)
                continue;
            os << "What is the sum of the evicted reuse distances "
                  "caused by PC "
               << str::hex(pc) << " in the " << entry->workload
               << " workload under " << policyDisplay(entry->policy)
               << "?";
            gold = sum;
            break;
          }
          default: {
            if (stats->mean_recency <= 0.0)
                continue;
            os << "What is the average recency of PC " << str::hex(pc)
               << " in the " << entry->workload << " workload with "
               << policyDisplay(entry->policy) << "?";
            gold = stats->mean_recency;
            break;
          }
        }
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.number = gold;
        q.gold.rel_tolerance = 0.02;
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n,
              "could not generate arithmetic questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeTrick(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x66));
    const auto workloads = db_.workloads();
    const auto policies = db_.policies();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 600) {
        // Premise type A: PC from workload A asked about workload B.
        // Premise type B: PC and address both exist but never co-occur.
        const bool cross_workload = out.size() % 2 == 0;
        const auto &wa = workloads[rng.nextBelow(workloads.size())];
        const auto &policy = policies[rng.nextBelow(policies.size())];
        const auto *entry_a = db_.find(wa, policy);
        if (!entry_a || entry_a->table.empty())
            continue;

        Question q;
        q.category = Category::TrickQuestion;
        q.gold.is_trick = true;

        if (cross_workload) {
            // Find a PC unique to another workload.
            std::string wb;
            for (const auto &cand : workloads) {
                if (cand != wa) {
                    wb = cand;
                    break;
                }
            }
            const auto *entry_b = db_.find(wb, policy);
            if (!entry_b)
                continue;
            const auto &pcs_b = entry_b->table.uniquePcs();
            std::uint64_t foreign = 0;
            for (const auto pc : pcs_b) {
                if (!entry_a->table.containsPc(pc)) {
                    foreign = pc;
                    break;
                }
            }
            if (!foreign)
                continue;
            const std::size_t i =
                rng.nextBelow(entry_a->table.size());
            const std::uint64_t addr = entry_a->table.addressAt(i);
            q.trace_key = db::shardKey(wa, policy);
            std::ostringstream os;
            os << "Does the memory access with PC " << str::hex(foreign)
               << " and address " << str::hex(addr)
               << " result in a cache hit or cache miss for the " << wa
               << " workload and " << policyDisplay(policy)
               << " replacement policy?";
            q.text = os.str();
        } else {
            // PC and address both present, never together.
            const auto &table = entry_a->table;
            const auto &pcs = table.uniquePcs();
            const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
            const std::size_t i = rng.nextBelow(table.size());
            const std::uint64_t addr = table.addressAt(i);
            if (table.pcAt(i) == pc)
                continue;
            if (!table.filter(&pc, &addr, 1).empty())
                continue;
            q.trace_key = db::shardKey(wa, policy);
            std::ostringstream os;
            os << "Does the memory access with PC " << str::hex(pc)
               << " and address " << str::hex(addr)
               << " result in a cache hit or cache miss for the " << wa
               << " workload and " << policyDisplay(policy)
               << " replacement policy?";
            q.text = os.str();
        }
        if (q.text.empty() || !used.insert(q.text).second)
            continue;
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n, "could not generate trick questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeConcepts(std::size_t n, std::size_t) const
{
    // Static, curated concept questions with rubric terms drawn from
    // the knowledge base topics (the generator models latent
    // knowledge; the rubric checks the same canonical points).
    std::vector<Question> all;
    auto add = [&all](const char *text,
                      std::initializer_list<const char *> key_terms) {
        Question q;
        q.category = Category::MicroarchConcepts;
        q.text = text;
        for (const auto *t : key_terms)
            q.gold.key_terms.emplace_back(t);
        all.push_back(std::move(q));
    };
    add("How does increasing cache size affect miss rate? Compare "
        "increasing the number of sets vs the number of ways.",
        {"capacity", "conflict", "sets", "ways"});
    add("Decompose a memory address into offset, index and tag bits "
        "for a cache with 64-byte lines and 2048 sets.",
        {"offset", "index", "tag", "6", "11"});
    add("What does a replacement policy do, and why does LRU break "
        "down on streaming scans?",
        {"victim", "recency", "scan"});
    add("Explain the difference between compulsory, capacity and "
        "conflict misses in a set-associative cache.",
        {"first", "fully associative", "collision"});
    add("How does software prefetching hide memory latency, and when "
        "does it hurt?",
        {"before the demand", "stall", "pollut"});
    add("What is reuse distance and how does it relate to whether a "
        "policy hits?",
        {"accesses between", "capacity", "forward"});
    if (all.size() > n)
        all.resize(n);
    CM_ASSERT(all.size() == n, "concept question shortfall");
    return all;
}

std::vector<Question>
BenchGenerator::makeCodeGen(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x88));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 400) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        if (entry->table.empty())
            continue;
        const std::size_t i = rng.nextBelow(entry->table.size());
        const std::uint64_t pc = entry->table.pcAt(i);
        const std::uint64_t addr = entry->table.addressAt(i);
        Question q;
        q.category = Category::CodeGeneration;
        q.trace_key = key;
        std::ostringstream os;
        os << "Write code to compute the number of cache hits for PC "
           << str::hex(pc) << " and address " << str::hex(addr)
           << " in the " << entry->workload << " workload under "
           << policyDisplay(entry->policy) << ".";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.key_terms = {key, str::hex(pc), "hit"};
        q.gold.evidence_terms = {str::hex(pc)};
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n, "could not generate code-gen questions");
    return out;
}

std::vector<Question>
BenchGenerator::makePolicyAnalysis(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0x99));
    const auto workloads = db_.workloads();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 800) {
        const auto &workload =
            workloads[rng.nextBelow(workloads.size())];
        const auto *belady_exp = db_.statsFor(
            db::shardKey(workload, "belady"));
        const auto *lru_exp =
            db_.statsFor(db::shardKey(workload, "lru"));
        if (!belady_exp || !lru_exp)
            continue;
        const auto *entry = db_.find(workload, "lru");
        const auto &pcs = entry->table.uniquePcs();
        const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
        const auto bs = belady_exp->pcStats(pc);
        const auto ls = lru_exp->pcStats(pc);
        if (!bs || !ls || bs->accesses < 100)
            continue;
        if (bs->hitRate() < ls->hitRate() + 0.05)
            continue;
        Question q;
        q.category = Category::ReplacementPolicyAnalysis;
        q.trace_key = db::shardKey(workload, "belady");
        std::ostringstream os;
        os << "Why does Belady outperform LRU on PC " << str::hex(pc)
           << " in the " << workload << " workload?";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.key_terms = {"future", "reuse distance", "recency"};
        q.gold.evidence_terms = {str::hex(pc)};
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n,
              "could not generate policy-analysis questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeWorkloadAnalysis(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0xaa));
    const auto workloads = db_.workloads();
    const auto policies = db_.policies();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 400) {
        const auto &policy = policies[rng.nextBelow(policies.size())];
        std::string best_workload;
        double best_rate = -1.0;
        for (const auto &workload : workloads) {
            const auto *expert = db_.statsFor(
                db::shardKey(workload, policy));
            if (!expert)
                continue;
            if (expert->summary().missRate() > best_rate) {
                best_rate = expert->summary().missRate();
                best_workload = workload;
            }
        }
        if (best_workload.empty())
            continue;
        Question q;
        q.category = Category::WorkloadAnalysis;
        q.trace_key =
            db::shardKey(best_workload, policy);
        std::ostringstream os;
        if (out.size() % 2 == 0) {
            os << "Comparing the ";
            for (std::size_t i = 0; i < workloads.size(); ++i)
                os << (i ? ", " : "") << workloads[i];
            os << " workloads under " << policyDisplay(policy)
               << ", which has the highest cache miss rate? Analyze "
                  "the workload characteristics that explain it.";
        } else {
            os << "Rank the ";
            for (std::size_t i = 0; i < workloads.size(); ++i)
                os << (i ? ", " : "") << workloads[i];
            os << " workloads by cache miss rate under "
               << policyDisplay(policy)
               << " and explain which workload behaviour drives the "
                  "highest rate.";
        }
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.key_terms = {best_workload, "capacity"};
        q.gold.evidence_terms = {best_workload};
        out.push_back(std::move(q));
        if (out.size() >= n)
            break;
    }
    CM_ASSERT(out.size() == n,
              "could not generate workload-analysis questions");
    return out;
}

std::vector<Question>
BenchGenerator::makeSemanticAnalysis(std::size_t n, std::size_t) const
{
    std::vector<Question> out;
    std::set<std::string> used;
    Rng rng(hashCombine(seed_, 0xbb));
    const auto keys = db_.keys();
    std::size_t guard = 0;
    while (out.size() < n && guard++ < n * 600) {
        const auto &key = keys[rng.nextBelow(keys.size())];
        const auto *entry = db_.find(key);
        const auto *expert = db_.statsFor(key);
        const trace::SymbolTable *symbols = entry->table.symbols();
        if (!symbols)
            continue;
        const auto &pcs = entry->table.uniquePcs();
        const std::uint64_t pc = pcs[rng.nextBelow(pcs.size())];
        const auto stats = expert->pcStats(pc);
        if (!stats || stats->accesses < 200)
            continue;
        const bool high_hit = stats->hitRate() > 0.6;
        const bool high_miss = stats->missRate() > 0.8;
        if (!high_hit && !high_miss)
            continue;
        const std::string fn = symbols->functionName(pc);
        if (fn == "unknown")
            continue;
        Question q;
        q.category = Category::SemanticAnalysis;
        q.trace_key = key;
        std::ostringstream os;
        os << "Why does PC " << str::hex(pc) << " have a "
           << (high_hit ? "high hit rate" : "high miss rate")
           << " in the " << entry->workload << " workload under "
           << policyDisplay(entry->policy)
           << "? Examine the assembly context and analyze.";
        q.text = os.str();
        if (!used.insert(q.text).second)
            continue;
        q.gold.key_terms = {fn, "reuse"};
        q.gold.evidence_terms = {str::hex(pc)};
        out.push_back(std::move(q));
    }
    CM_ASSERT(out.size() == n,
              "could not generate semantic-analysis questions");
    return out;
}

} // namespace cachemind::benchsuite
