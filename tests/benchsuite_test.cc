/**
 * @file
 * Tests for CacheMindBench: suite composition (Table 1), gold-answer
 * verification against the database, graders, and the evaluation
 * harness's aggregation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "base/random.hh"
#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "db/builder.hh"
#include "retrieval/ranger.hh"
#include "retrieval/sieve.hh"

using namespace cachemind;
using namespace cachemind::benchsuite;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        // Full default-size build: the generator needs enough PC
        // diversity to assemble all 100 unique questions.
        return db::buildDatabase();
    }();
    return database;
}

const std::vector<Question> &
sharedSuite()
{
    static const std::vector<Question> suite = [] {
        return BenchGenerator(sharedDb()).generate();
    }();
    return suite;
}

/** Fold one length-prefixed field into an FNV-1a digest. */
std::uint64_t
foldField(std::uint64_t h, std::string_view field)
{
    h = fnv1aExtend(h, std::to_string(field.size()));
    h = fnv1aExtend(h, ":");
    return fnv1aExtend(h, field);
}

std::uint64_t
foldBits(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return foldField(h, std::to_string(bits));
}

/** FNV-1a digest over every field of every question of a suite. */
std::uint64_t
suiteDigest(std::uint64_t h, const std::vector<Question> &suite)
{
    for (const auto &q : suite) {
        h = foldField(h, std::to_string(q.id));
        h = foldField(h, categoryName(q.category));
        h = foldField(h, q.text);
        h = foldField(h, q.trace_key);
        const auto &g = q.gold;
        h = foldField(h, !g.is_hit ? "-" : *g.is_hit ? "hit" : "miss");
        h = g.number ? foldBits(h, *g.number) : foldField(h, "-");
        h = foldBits(h, g.abs_tolerance);
        h = foldBits(h, g.rel_tolerance);
        h = g.policy ? foldField(h, "=" + *g.policy) : foldField(h, "-");
        h = foldField(h, g.is_trick ? "trick" : "-");
        h = foldField(h, std::to_string(g.key_terms.size()));
        for (const auto &t : g.key_terms)
            h = foldField(h, t);
        h = foldField(h, std::to_string(g.evidence_terms.size()));
        for (const auto &t : g.evidence_terms)
            h = foldField(h, t);
    }
    return h;
}

} // namespace

TEST(CompositionTest, Table1Counts)
{
    std::map<Category, std::size_t> counts;
    for (const auto &q : sharedSuite())
        ++counts[q.category];
    EXPECT_EQ(counts[Category::HitMiss], 30u);
    EXPECT_EQ(counts[Category::MissRate], 10u);
    EXPECT_EQ(counts[Category::PolicyComparison], 15u);
    EXPECT_EQ(counts[Category::Count], 5u);
    EXPECT_EQ(counts[Category::Arithmetic], 10u);
    EXPECT_EQ(counts[Category::TrickQuestion], 5u);
    EXPECT_EQ(counts[Category::MicroarchConcepts], 5u);
    EXPECT_EQ(counts[Category::CodeGeneration], 5u);
    EXPECT_EQ(counts[Category::ReplacementPolicyAnalysis], 5u);
    EXPECT_EQ(counts[Category::WorkloadAnalysis], 5u);
    EXPECT_EQ(counts[Category::SemanticAnalysis], 5u);
    EXPECT_EQ(sharedSuite().size(), 100u);
}

TEST(CompositionTest, QuestionsAreUniqueAndIdsSequential)
{
    std::set<std::string> texts;
    for (std::size_t i = 0; i < sharedSuite().size(); ++i) {
        EXPECT_EQ(sharedSuite()[i].id, i);
        EXPECT_TRUE(texts.insert(sharedSuite()[i].text).second)
            << "duplicate question: " << sharedSuite()[i].text;
    }
}

TEST(CompositionTest, GenerationIsDeterministic)
{
    const auto again = BenchGenerator(sharedDb()).generate();
    ASSERT_EQ(again.size(), sharedSuite().size());
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].text, sharedSuite()[i].text);
}

TEST(CompositionTest, SuitesMatchPinnedDigest)
{
    // The default-seed suite plus ten more seeds, digested field by
    // field. The constant was recorded from the generator as it was
    // before its policy-comparison loop was optimised; any change to
    // an RNG draw, an accept/reject decision, a text or a gold moves
    // it.
    std::uint64_t h = suiteDigest(kFnv1aBasis, sharedSuite());
    for (std::uint64_t i = 0; i < 10; ++i)
        h = suiteDigest(
            h, BenchGenerator(sharedDb(), hashCombine(7, i)).generate());
    EXPECT_EQ(h, 0xfb73e82dd7193434ULL) << std::hex << "0x" << h;
}

TEST(GoldVerificationTest, HitMissGoldsMatchTheTable)
{
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::HitMiss)
            continue;
        const auto *entry = sharedDb().find(q.trace_key);
        ASSERT_NE(entry, nullptr);
        // Re-derive the gold from the raw table.
        query::NlQueryParser parser(sharedDb().workloads(),
                                    sharedDb().policies());
        const auto parsed = parser.parse(q.text);
        ASSERT_TRUE(parsed.pc && parsed.address);
        const auto rows =
            entry->table.filter(&*parsed.pc, &*parsed.address, 1);
        ASSERT_FALSE(rows.empty()) << q.text;
        EXPECT_EQ(!entry->table.isMissAt(rows[0]), *q.gold.is_hit);
    }
}

TEST(GoldVerificationTest, TrickPremisesAreActuallyInvalid)
{
    query::NlQueryParser parser(sharedDb().workloads(),
                                sharedDb().policies());
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::TrickQuestion)
            continue;
        const auto parsed = parser.parse(q.text);
        const auto *entry = sharedDb().find(q.trace_key);
        ASSERT_NE(entry, nullptr);
        ASSERT_TRUE(parsed.pc && parsed.address);
        EXPECT_TRUE(entry->table
                        .filter(&*parsed.pc, &*parsed.address, 1)
                        .empty())
            << "trick premise is actually satisfiable: " << q.text;
    }
}

TEST(GoldVerificationTest, CountGoldsMatchStats)
{
    query::NlQueryParser parser(sharedDb().workloads(),
                                sharedDb().policies());
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::Count)
            continue;
        const auto parsed = parser.parse(q.text);
        const auto *expert = sharedDb().statsFor(q.trace_key);
        ASSERT_TRUE(parsed.pc);
        const auto stats = expert->pcStats(*parsed.pc);
        ASSERT_TRUE(stats.has_value());
        EXPECT_DOUBLE_EQ(*q.gold.number,
                         static_cast<double>(stats->accesses));
    }
}

TEST(GoldVerificationTest, PolicyComparisonGoldsMatchStats)
{
    query::NlQueryParser parser(sharedDb().workloads(),
                                sharedDb().policies());
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::PolicyComparison)
            continue;
        const auto parsed = parser.parse(q.text);
        ASSERT_TRUE(parsed.hasWorkload()) << q.text;
        EXPECT_EQ(q.trace_key, db::shardKey(parsed.workload(), "lru"));
        const bool lowest =
            q.text.find(" lowest miss rate ") != std::string::npos;
        ASSERT_NE(lowest,
                  q.text.find(" highest miss rate ") != std::string::npos)
            << q.text;
        // Recompute every policy's rate: per PC when the question
        // names one, whole-trace otherwise.
        std::vector<std::pair<std::string, double>> rates;
        for (const auto &policy : sharedDb().policies()) {
            const auto *expert = sharedDb().statsFor(
                db::shardKey(parsed.workload(), policy));
            ASSERT_NE(expert, nullptr);
            if (parsed.pc) {
                const auto stats = expert->pcStats(*parsed.pc);
                ASSERT_TRUE(stats.has_value()) << q.text;
                rates.emplace_back(policy, stats->missRate());
            } else {
                rates.emplace_back(policy, expert->summary().missRate());
            }
        }
        ASSERT_GE(rates.size(), 2u);
        // The gold must be the unique extreme, by at least 1e-9.
        std::size_t best = 0;
        for (std::size_t i = 1; i < rates.size(); ++i) {
            if (lowest ? rates[i].second < rates[best].second
                       : rates[i].second > rates[best].second)
                best = i;
        }
        ASSERT_TRUE(q.gold.policy.has_value()) << q.text;
        EXPECT_EQ(*q.gold.policy, rates[best].first) << q.text;
        for (std::size_t i = 0; i < rates.size(); ++i) {
            if (i == best)
                continue;
            const double gap = lowest
                                   ? rates[i].second - rates[best].second
                                   : rates[best].second - rates[i].second;
            EXPECT_GE(gap, 1e-9)
                << q.text << ": " << rates[i].first << " ties the gold";
        }
    }
}

TEST(GraderTest, ExactHitMiss)
{
    Question q;
    q.category = Category::HitMiss;
    q.gold.is_hit = true;

    llm::Answer right;
    right.says_hit = true;
    EXPECT_TRUE(gradeExact(q, right).correct);

    llm::Answer wrong;
    wrong.says_hit = false;
    EXPECT_FALSE(gradeExact(q, wrong).correct);

    llm::Answer none;
    EXPECT_FALSE(gradeExact(q, none).correct);

    llm::Answer rejected;
    rejected.rejected_premise = true;
    EXPECT_FALSE(gradeExact(q, rejected).correct);
}

TEST(GraderTest, NumericTolerances)
{
    Question q;
    q.category = Category::MissRate;
    q.gold.number = 0.5;
    q.gold.abs_tolerance = 0.005;

    llm::Answer close;
    close.number = 0.503;
    EXPECT_TRUE(gradeExact(q, close).correct);

    llm::Answer far;
    far.number = 0.52;
    EXPECT_FALSE(gradeExact(q, far).correct);

    Question rel;
    rel.category = Category::Arithmetic;
    rel.gold.number = 10000.0;
    rel.gold.rel_tolerance = 0.02;
    llm::Answer near;
    near.number = 10150.0;
    EXPECT_TRUE(gradeExact(rel, near).correct);
    llm::Answer off;
    off.number = 10500.0;
    EXPECT_FALSE(gradeExact(rel, off).correct);
}

TEST(GraderTest, TrickRequiresRejection)
{
    Question q;
    q.category = Category::TrickQuestion;
    q.gold.is_trick = true;

    llm::Answer rejected;
    rejected.rejected_premise = true;
    EXPECT_TRUE(gradeExact(q, rejected).correct);

    llm::Answer guessed;
    guessed.says_hit = false;
    EXPECT_FALSE(gradeExact(q, guessed).correct);
}

TEST(GraderTest, PolicyChoiceIsCaseInsensitive)
{
    Question q;
    q.category = Category::PolicyComparison;
    q.gold.policy = "belady";
    llm::Answer a;
    a.chosen_policy = "Belady";
    EXPECT_TRUE(gradeExact(q, a).correct);
}

TEST(GraderTest, RubricComponents)
{
    Question q;
    q.category = Category::ReplacementPolicyAnalysis;
    q.gold.key_terms = {"future", "recency"};
    q.gold.evidence_terms = {"0x4037aa"};

    llm::Answer full;
    full.text =
        "PC 0x4037aa has a 99% miss rate. Belady sees the future "
        "reuse order, while recency-based eviction cannot. A reuse "
        "predictor closes the gap.";
    full.evidence = {"0x4037aa"};
    const auto g = gradeRubric(q, full);
    EXPECT_DOUBLE_EQ(g.max, 5.0);
    EXPECT_GE(g.score, 4.0);

    llm::Answer vague;
    vague.text = "It is faster because of cache effects.";
    EXPECT_LE(gradeRubric(q, vague).score, 1.0);

    llm::Answer disengaged;
    disengaged.engaged = false;
    EXPECT_DOUBLE_EQ(gradeRubric(q, disengaged).score, 0.0);
}

TEST(GraderTest, CopiedExampleVoidsEvidence)
{
    Question q;
    q.category = Category::SemanticAnalysis;
    q.gold.key_terms = {"chase"};
    q.gold.evidence_terms = {"0x400512"};
    llm::Answer copied;
    copied.text = "The access in chase() at 0x400512 repeats. It "
                  "reuses the same line every time through the loop.";
    copied.copied_example = true;
    const auto g = gradeRubric(q, copied);
    // Correctness + clarity may score, but the evidence point cannot.
    EXPECT_LE(g.score, 4.0);
}

TEST(HarnessTest, AggregationsAreConsistent)
{
    const EvalHarness harness(sharedSuite());
    retrieval::SieveRetriever sieve(sharedDb());
    const llm::GeneratorLlm gen(llm::BackendKind::Gpt4o);
    const auto res = harness.evaluate(sieve, gen);

    ASSERT_EQ(res.records.size(), 100u);
    double cat_earned = 0.0, cat_max = 0.0;
    for (const auto &[cat, score] : res.by_category) {
        cat_earned += score.earned;
        cat_max += score.max;
    }
    double rec_earned = 0.0, rec_max = 0.0;
    for (const auto &rec : res.records) {
        rec_earned += rec.grade.score;
        rec_max += rec.grade.max;
    }
    EXPECT_DOUBLE_EQ(cat_earned, rec_earned);
    EXPECT_DOUBLE_EQ(cat_max, rec_max);
    EXPECT_GE(res.tgPct(), 0.0);
    EXPECT_LE(res.tgPct(), 100.0);
    EXPECT_GE(res.weightedTotalPct(), 0.0);

    const auto hist = res.araScoreHistogram();
    std::size_t hist_total = 0;
    for (const auto n : hist)
        hist_total += n;
    EXPECT_EQ(hist_total, 25u);
}

TEST(HarnessTest, CountFailsUnderSieveSucceedsUnderRanger)
{
    const EvalHarness harness(sharedSuite());
    const llm::GeneratorLlm gen(llm::BackendKind::Gpt4o);

    retrieval::SieveRetriever sieve(sharedDb());
    const auto res_sieve = harness.evaluate(sieve, gen);
    EXPECT_DOUBLE_EQ(
        res_sieve.by_category.at(Category::Count).pct(), 0.0);

    retrieval::RangerRetriever ranger(sharedDb());
    const auto res_ranger = harness.evaluate(ranger, gen);
    EXPECT_DOUBLE_EQ(
        res_ranger.by_category.at(Category::Count).pct(), 100.0);
}

TEST(HarnessTest, EvaluationIsDeterministic)
{
    const EvalHarness harness(sharedSuite());
    const llm::GeneratorLlm gen(llm::BackendKind::Gpt4oMini);
    retrieval::SieveRetriever s1(sharedDb());
    retrieval::SieveRetriever s2(sharedDb());
    const auto a = harness.evaluate(s1, gen);
    const auto b = harness.evaluate(s2, gen);
    EXPECT_DOUBLE_EQ(a.weightedTotalPct(), b.weightedTotalPct());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i].grade.score, b.records[i].grade.score);
}

TEST(CategoryTest, TierMembership)
{
    EXPECT_TRUE(isTraceGrounded(Category::HitMiss));
    EXPECT_TRUE(isTraceGrounded(Category::TrickQuestion));
    EXPECT_FALSE(isTraceGrounded(Category::MicroarchConcepts));
    EXPECT_FALSE(isTraceGrounded(Category::SemanticAnalysis));
    EXPECT_EQ(allCategories().size(), 11u);
}
