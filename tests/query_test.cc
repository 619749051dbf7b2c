/**
 * @file
 * Tests for the query layer: natural-language parsing (intent +
 * symbolic slots) and the retrieval DSL interpreter, including the
 * exact semantics Ranger's execution runtime depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "base/random.hh"
#include "base/str.hh"
#include "db/builder.hh"
#include "query/dsl.hh"
#include "query/parser.hh"

using namespace cachemind;
using namespace cachemind::query;

namespace {

NlQueryParser
makeParser()
{
    return NlQueryParser({"astar", "lbm", "mcf", "milc", "microbench"},
                         {"belady", "lru", "mlp", "parrot"});
}

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Microbench};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 40000;
        return db::buildDatabase(options);
    }();
    return database;
}

} // namespace

TEST(ParserTest, HitMissQueryExtractsEverything)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "Does the memory access with PC 0x401e31 and address "
        "0x35e798a637f result in a cache hit or cache miss for the "
        "lbm workload under PARROT?");
    EXPECT_EQ(q.intent, QueryIntent::HitMiss);
    ASSERT_TRUE(q.pc.has_value());
    EXPECT_EQ(*q.pc, 0x401e31u);
    ASSERT_TRUE(q.address.has_value());
    EXPECT_EQ(*q.address, 0x35e798a637fULL);
    ASSERT_TRUE(q.hasWorkload());
    EXPECT_EQ(q.workload(), "lbm");
    ASSERT_TRUE(q.hasPolicy());
    EXPECT_EQ(q.policy(), "parrot");
}

TEST(ParserTest, MissRateQuery)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "What is the miss rate for PC 0x4037ba in mcf with PARROT?");
    EXPECT_EQ(q.intent, QueryIntent::MissRate);
    EXPECT_EQ(*q.pc, 0x4037bau);
    EXPECT_EQ(q.workload(), "mcf");
}

TEST(ParserTest, PolicyComparisonNeedsWorkload)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "Which policy has the lowest miss rate for PC 0x409270 in "
        "astar?");
    EXPECT_EQ(q.intent, QueryIntent::PolicyComparison);
    const auto concept_q = parser.parse(
        "Which choice gives a lower miss rate, more sets or more "
        "ways, for a fixed cache size?");
    EXPECT_EQ(concept_q.intent, QueryIntent::Concept);
}

TEST(ParserTest, CountQuery)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "How many times did PC 0x405832 appear in astar under LRU?");
    EXPECT_EQ(q.intent, QueryIntent::Count);
    EXPECT_EQ(*q.pc, 0x405832u);
}

TEST(ParserTest, ArithmeticSlots)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "What is the average evicted reuse distance of PC 0x40170a "
        "for the lbm workload with MLP?");
    EXPECT_EQ(q.intent, QueryIntent::Arithmetic);
    EXPECT_EQ(q.agg, AggKind::Mean);
    EXPECT_EQ(q.field, FieldKind::EvictedReuseDistance);

    const auto q2 = parser.parse(
        "What is the standard deviation of the reuse distance of PC "
        "0x413930 in the milc workload under LRU?");
    EXPECT_EQ(q2.agg, AggKind::Std);
    EXPECT_EQ(q2.field, FieldKind::ReuseDistance);
}

TEST(ParserTest, ExplainAndCodeGen)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser
                  .parse("Why does Belady outperform LRU on PC "
                         "0x409270 in astar?")
                  .intent,
              QueryIntent::Explain);
    EXPECT_EQ(parser
                  .parse("Write code to compute hits for PC 0x4037ba "
                         "in mcf under LRU.")
                  .intent,
              QueryIntent::CodeGen);
}

TEST(ParserTest, ListingsAndSets)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser.parse("List all unique PCs in the mcf workload "
                           "under LRU.")
                  .intent,
              QueryIntent::ListPcs);
    EXPECT_EQ(parser
                  .parse("For astar and Belady, could you list the "
                         "unique cache sets in ascending order?")
                  .intent,
              QueryIntent::ListSets);
    const auto hot = parser.parse(
        "Identify 5 hot and 5 cold sets by hit rate for astar under "
        "LRU.");
    EXPECT_EQ(hot.intent, QueryIntent::SetStats);
    EXPECT_EQ(hot.top_n, 5u);
}

TEST(ParserTest, ConceptQuestions)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser
                  .parse("How does increasing cache size affect miss "
                         "rate? Compare sets vs ways.")
                  .intent,
              QueryIntent::Concept);
    EXPECT_EQ(parser
                  .parse("Decompose a memory address into offset, "
                         "index and tag bits for 64-byte lines.")
                  .intent,
              QueryIntent::Concept);
}

TEST(ParserTest, PcVsAddressDisambiguation)
{
    const auto parser = makeParser();
    // Small hex value = PC; large = data address, regardless of order.
    const auto q =
        parser.parse("check 0x2bfd401c63f against 0x409270 in astar");
    ASSERT_TRUE(q.pc.has_value());
    EXPECT_EQ(*q.pc, 0x409270u);
    ASSERT_TRUE(q.address.has_value());
    EXPECT_EQ(*q.address, 0x2bfd401c63fULL);
}

// ------------------------------------- stage-1 differential reference

namespace reference {

// The stage-1 parse path as it was before names were prepared once per
// vocabulary, copied verbatim except that the embedder's private
// helpers became free functions: the string-building feature hasher,
// the per-question rankNames, and parse()'s stage 1. The parser must
// reproduce its output exactly.

void
addFeature(std::vector<float> &v, const std::string &feat, float weight)
{
    const std::uint64_t h = fnv1a(feat);
    const std::size_t slot = static_cast<std::size_t>(h % v.size());
    // Signed hashing reduces collision bias.
    const float sign = (splitMix64(h) & 1) ? 1.0f : -1.0f;
    v[slot] += sign * weight;
}

std::vector<float>
embed(const std::string &text)
{
    std::vector<float> v(128, 0.0f);
    const auto tokens = text::tokenize(text);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        addFeature(v, tokens[i], 1.0f);
        if (i + 1 < tokens.size())
            addFeature(v, tokens[i] + "_" + tokens[i + 1], 0.5f);
        // Character trigrams give robustness to morphology.
        const std::string &t = tokens[i];
        if (t.size() > 3) {
            for (std::size_t k = 0; k + 3 <= t.size(); ++k)
                addFeature(v, "#" + t.substr(k, 3), 0.25f);
        }
    }
    double norm = 0.0;
    for (const float x : v)
        norm += static_cast<double>(x) * x;
    if (norm > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (float &x : v)
            x *= inv;
    }
    return v;
}

double
cosine(const std::vector<float> &a, const std::vector<float> &b)
{
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot / std::sqrt(na * nb);
}

std::vector<text::NameMatch>
rankNames(const std::string &query,
          const std::vector<std::string> &names)
{
    const auto tokens = text::tokenize(query);
    const auto qvec = embed(query);
    std::vector<text::NameMatch> out;
    for (const auto &name : names) {
        double score = cosine(qvec, embed(name));
        // Exact token membership dominates.
        for (const auto &tok : tokens) {
            if (tok == str::toLower(name)) {
                score += 1.0;
                break;
            }
        }
        // Light fuzzy credit for near-miss spellings ("beladys").
        std::size_t best_ed = name.size();
        for (const auto &tok : tokens)
            best_ed = std::min(best_ed,
                               str::editDistance(tok,
                                                 str::toLower(name)));
        if (best_ed <= 2 && name.size() > 3)
            score += 0.5 * (3.0 - static_cast<double>(best_ed)) / 3.0;
        out.push_back(text::NameMatch{name, score});
    }
    std::sort(out.begin(), out.end(),
              [](const text::NameMatch &a, const text::NameMatch &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.name < b.name;
              });
    return out;
}

bool
hasAny(const std::string &lower,
       std::initializer_list<const char *> needles)
{
    for (const char *n : needles) {
        if (lower.find(n) != std::string::npos)
            return true;
    }
    return false;
}

/** parse()'s stage 1: the workload and policy slots. */
ParsedQuery
stage1(const std::string &text,
       const std::vector<std::string> &workload_names_,
       const std::vector<std::string> &policy_names_)
{
    ParsedQuery q;
    const std::string lower = str::toLower(text);

    // --- Stage 1: workload / policy extraction (semantic + fuzzy).
    const auto wl_matches = rankNames(lower, workload_names_);
    for (const auto &m : wl_matches) {
        if (m.score >= 0.9)
            q.workloads.push_back(m.name);
    }
    const auto pol_matches = rankNames(lower, policy_names_);
    for (const auto &m : pol_matches) {
        if (m.score >= 0.9)
            q.policies.push_back(m.name);
    }
    // Common aliases not in the canonical vocabulary.
    if (q.policies.empty()) {
        if (hasAny(lower, {"belady", "optimal", "opt ", "min policy"}))
            q.policies.push_back("belady");
        if (hasAny(lower, {"least recently used"}))
            q.policies.push_back("lru");
    }
    return q;
}

} // namespace reference

namespace {

/** One question per intent, so every classification path runs. */
const std::vector<std::pair<std::string, QueryIntent>> &
intentQuestions()
{
    static const std::vector<std::pair<std::string, QueryIntent>> qs = {
        {"Does the memory access with PC 0x401e31 and address "
         "0x35e798a637f result in a cache hit or cache miss for the lbm "
         "workload under PARROT?",
         QueryIntent::HitMiss},
        {"What is the miss rate for PC 0x4037ba in mcf with PARROT?",
         QueryIntent::MissRate},
        {"Which policy has the lowest miss rate for PC 0x409270 in "
         "astar?",
         QueryIntent::PolicyComparison},
        {"How many times did PC 0x405832 appear in astar under LRU?",
         QueryIntent::Count},
        {"What is the average evicted reuse distance of PC 0x40170a for "
         "the lbm workload with MLP?",
         QueryIntent::Arithmetic},
        {"List all unique PCs in the mcf workload under LRU.",
         QueryIntent::ListPcs},
        {"For astar and Belady, could you list the unique cache sets in "
         "ascending order?",
         QueryIntent::ListSets},
        {"Identify 5 hot and 5 cold sets by hit rate for astar under "
         "LRU.",
         QueryIntent::SetStats},
        {"Tell me about PC 0x4037aa in mcf under LRU.",
         QueryIntent::PcStats},
        {"Which PCs cause the most cache misses in mcf under Belady?",
         QueryIntent::TopPcs},
        {"Why does Belady outperform LRU on PC 0x409270 in astar?",
         QueryIntent::Explain},
        {"Which choice gives a lower miss rate, more sets or more ways, "
         "for a fixed cache size?",
         QueryIntent::Concept},
        {"Write code to compute hits for PC 0x4037ba in mcf under LRU.",
         QueryIntent::CodeGen},
        {"Good morning, how are you today?", QueryIntent::Unknown},
    };
    return qs;
}

/** Case and misspelling variants, plus the alias fallbacks. */
const std::vector<std::string> &
variantQuestions()
{
    static const std::vector<std::string> qs = {
        "Why does Beladys beat LRU on PC 0x4037aa in mcf?",
        "What is the miss rate of astr under parot?",
        "How many misses does mcff have under Belady?",
        "Compare LRU and BELADY on MCF for PC 0x409270.",
        "Does Lbm hit under PaRrOt at PC 0x401dc9 and address "
        "0x47ea85d37f?",
        "rank the policies for astr: beladyy, lru, parrrot, mlpp",
        "What would the optimal policy do on lbm?",
        "Is least recently used good for mcf?",
        "milc microbench mockingjay hawkeye glider srrip drrip",
        "",
        "!!! ???",
    };
    return qs;
}

/** Stage 1 against the reference, and the scores bit for bit. */
void
expectMatchesReference(const NlQueryParser &parser,
                       const std::string &text)
{
    SCOPED_TRACE(text);
    const ParsedQuery got = parser.parse(text);
    const ParsedQuery want = reference::stage1(
        text, parser.workloadNames(), parser.policyNames());
    EXPECT_EQ(got.workloads, want.workloads);
    EXPECT_EQ(got.policies, want.policies);

    const std::string lower = str::toLower(text);
    const text::HashEmbedder embedder(128);
    EXPECT_EQ(embedder.embed(lower), reference::embed(lower));
    for (const auto *names :
         {&parser.workloadNames(), &parser.policyNames()}) {
        const auto ranked = text::rankNames(lower, *names, embedder);
        const auto ref = reference::rankNames(lower, *names);
        ASSERT_EQ(ranked.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ranked[i].name, ref[i].name) << "rank " << i;
            EXPECT_EQ(ranked[i].score, ref[i].score) << ref[i].name;
        }
    }
}

std::vector<NlQueryParser>
differentialParsers()
{
    return {
        makeParser(),
        // The engine's default vocabulary.
        NlQueryParser({"astar", "lbm", "mcf"},
                      {"belady", "lru", "parrot", "mlp"}),
        // 3 workloads + 14 policies.
        NlQueryParser({"astar", "lbm", "mcf"},
                      {"lru", "fifo", "random", "srrip", "brrip",
                       "drrip", "dip", "ship", "belady", "parrot",
                       "mlp", "mockingjay", "hawkeye", "glider"}),
    };
}

} // namespace

TEST(ParserDifferentialTest, IntentQuestionsMatchReference)
{
    const auto parser = makeParser();
    for (const auto &[text, intent] : intentQuestions())
        EXPECT_EQ(parser.parse(text).intent, intent) << text;
    for (const auto &p : differentialParsers()) {
        for (const auto &[text, intent] : intentQuestions())
            expectMatchesReference(p, text);
    }
}

TEST(ParserDifferentialTest, CaseAndMisspellingVariantsMatchReference)
{
    for (const auto &p : differentialParsers()) {
        for (const auto &text : variantQuestions())
            expectMatchesReference(p, text);
    }
}

// ------------------------------------------------------ interpreter

TEST(DslTest, MissRateMatchesStatsExpert)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto stats = expert->pcStats(0x400512);
    ASSERT_TRUE(stats.has_value());

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::MissRate;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(res.number.has_value());
    EXPECT_NEAR(*res.number, stats->missRate(), 1e-12);
}

TEST(DslTest, CountMatchesAccesses)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto stats = expert->pcStats(0x400512);

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::CountRows;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_DOUBLE_EQ(*res.number,
                     static_cast<double>(stats->accesses));
}

TEST(DslTest, HitCountPlusMissesEqualsAccesses)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;

    prog.op = DslOp::HitCount;
    const auto hits = interp.run(prog);
    prog.op = DslOp::CountRows;
    const auto total = interp.run(prog);
    prog.op = DslOp::MissRate;
    const auto rate = interp.run(prog);
    ASSERT_TRUE(hits.ok && total.ok && rate.ok);
    EXPECT_NEAR(*hits.number,
                *total.number * (1.0 - *rate.number), 1e-6);
}

TEST(DslTest, AggregatesRespectSentinels)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::MinField;
    prog.field = DslField::ReuseDistance;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(*res.number, 0.0); // kNoValue rows are excluded
}

TEST(DslTest, SelectRowsHonoursLimitAndReportsMatched)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::SelectRows;
    prog.limit = 5;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.rows.size(), 5u);
    EXPECT_GT(res.matched, 5u);
    for (const auto &row : res.rows)
        EXPECT_EQ(row.program_counter, 0x400512u);
}

TEST(DslTest, UnknownTraceFails)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "gcc_evictions_lru";
    prog.op = DslOp::CountRows;
    const auto res = interp.run(prog);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("gcc_evictions_lru"), std::string::npos);
}

TEST(DslTest, MetadataOpReturnsSummary)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::Metadata;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_NE(res.text.find("total accesses"), std::string::npos);
}

TEST(DslTest, UniqueListingsSorted)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::UniquePcs;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_GT(res.values.size(), 2u);
    for (std::size_t i = 1; i < res.values.size(); ++i)
        EXPECT_LT(res.values[i - 1], res.values[i]);
}

TEST(DslTest, RenderedPythonMentionsFiltersAndTable)
{
    DslProgram prog;
    prog.trace_key = "lbm_evictions_lru";
    prog.pc = 0x401e31;
    prog.address = 0x35e798a637f;
    prog.op = DslOp::MissRate;
    const auto code = renderProgramAsPython(prog);
    EXPECT_NE(code.find("lbm_evictions_lru"), std::string::npos);
    EXPECT_NE(code.find("0x401e31"), std::string::npos);
    EXPECT_NE(code.find("0x35e798a637f"), std::string::npos);
    EXPECT_NE(code.find("miss rate"), std::string::npos);
    EXPECT_NE(code.find("result ="), std::string::npos);
}

// -------------------------------------- index-vs-scan equivalence

namespace {

/** Deterministic digest of one materialised row, every field. */
std::string
rowSignature(const db::AccessRow &r)
{
    std::ostringstream os;
    os << r.index << '|' << r.program_counter << '|'
       << r.memory_address << '|' << r.cache_set_id << '|' << r.is_miss
       << r.bypassed << r.has_victim << r.wrong_eviction << '|'
       << static_cast<int>(r.miss_type) << '|' << r.evicted_address
       << '|' << r.accessed_reuse_distance << '|' << r.accessed_recency
       << '|' << r.evicted_reuse_distance << '|' << r.recency_text
       << '|' << r.function_name << '|'
       << r.current_cache_lines.size() << '|'
       << r.cache_line_eviction_scores.size() << '|'
       << r.recent_access_history.size();
    return os.str();
}

/** Assert two DslResults are byte-identical, field by field. */
void
expectSameResult(const DslResult &a, const DslResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.ok, b.ok) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.matched, b.matched) << what;
    ASSERT_EQ(a.number.has_value(), b.number.has_value()) << what;
    if (a.number) {
        // Bit-exact: the indexed path must visit the same samples in
        // the same order, so even floating aggregates are identical.
        EXPECT_EQ(*a.number, *b.number) << what;
    }
    EXPECT_EQ(a.values, b.values) << what;
    EXPECT_EQ(a.text, b.text) << what;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(rowSignature(a.rows[i]), rowSignature(b.rows[i]))
            << what << " row " << i;
    }
}

} // namespace

TEST(DslIndexEquivalenceTest, RandomizedProgramsMatchReferenceScan)
{
    // Property test: the indexed interpreter must produce
    // byte-identical results to the reference O(n) scan over
    // randomized programs — every op, random pc/address/set filters
    // (present and absent), random fields and limits.
    const auto &database = sharedDb();
    const Interpreter indexed(database, ExecMode::Indexed);
    const Interpreter scan(database, ExecMode::ReferenceScan);
    ASSERT_EQ(indexed.mode(), ExecMode::Indexed);
    ASSERT_EQ(scan.mode(), ExecMode::ReferenceScan);

    const std::string key = "microbench_evictions_lru";
    const auto *entry = database.find(key);
    ASSERT_NE(entry, nullptr);
    const db::TraceTable &table = entry->table;
    const auto pcs = table.uniquePcsScan();
    const auto sets = table.uniqueSetsScan();
    ASSERT_FALSE(pcs.empty());
    ASSERT_FALSE(sets.empty());

    const DslOp ops[] = {DslOp::SelectRows, DslOp::CountRows,
                         DslOp::MissRate,   DslOp::HitCount,
                         DslOp::MeanField,  DslOp::SumField,
                         DslOp::MinField,   DslOp::MaxField,
                         DslOp::StdField,   DslOp::UniquePcs,
                         DslOp::UniqueSets};
    const DslField fields[] = {DslField::ReuseDistance,
                               DslField::EvictedReuseDistance,
                               DslField::Recency};
    const std::size_t limits[] = {0, 1, 5, 16};

    std::mt19937_64 rng(0xca6eULL);
    for (int iter = 0; iter < 400; ++iter) {
        DslProgram prog;
        prog.trace_key = key;
        prog.op = ops[rng() % (sizeof(ops) / sizeof(ops[0]))];
        prog.field = fields[rng() % 3];
        prog.limit = limits[rng() % 4];
        if (rng() % 2 == 0) {
            prog.pc = rng() % 5 == 0 ? 0xdead0000 + (rng() % 16)
                                     : pcs[rng() % pcs.size()];
        }
        if (rng() % 3 == 0) {
            prog.address = rng() % 5 == 0
                               ? 0x1230000 + (rng() % 16)
                               : table.addressAt(rng() % table.size());
        }
        if (rng() % 3 == 0) {
            prog.set_id = rng() % 5 == 0
                              ? 0xfff0u + (rng() % 8)
                              : sets[rng() % sets.size()];
        }
        const auto a = indexed.run(prog);
        const auto b = scan.run(prog);
        std::ostringstream what;
        what << "iter=" << iter << " op=" << dslOpName(prog.op);
        if (prog.pc)
            what << " pc=" << *prog.pc;
        if (prog.address)
            what << " addr=" << *prog.address;
        if (prog.set_id)
            what << " set=" << *prog.set_id;
        what << " limit=" << prog.limit;
        expectSameResult(a, b, what.str());
    }
}

TEST(DslIndexEquivalenceTest, UnfilteredAggregatesMatchWithoutRowVector)
{
    // The unfiltered paths (previously an n-element row-index vector
    // per call) must agree with the scan on whole-table answers.
    const auto &database = sharedDb();
    const Interpreter indexed(database, ExecMode::Indexed);
    const Interpreter scan(database, ExecMode::ReferenceScan);
    for (const auto op :
         {DslOp::CountRows, DslOp::HitCount, DslOp::MissRate,
          DslOp::MeanField, DslOp::StdField, DslOp::SelectRows}) {
        DslProgram prog;
        prog.trace_key = "microbench_evictions_lru";
        prog.op = op;
        prog.limit = 4;
        expectSameResult(indexed.run(prog), scan.run(prog),
                         dslOpName(op));
    }
}

TEST(DslTest, PerSetStatsForOneSet)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto sets = expert->allSetStats();
    ASSERT_FALSE(sets.empty());

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::PerSetStats;
    prog.set_id = sets.front().set;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.set_stats.size(), 1u);
    EXPECT_EQ(res.set_stats[0].accesses, sets.front().accesses);
}
