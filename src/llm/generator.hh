/**
 * @file
 * The generator LLM (§3.2.4) as a simulated backend.
 *
 * The generator is a *grounded reasoner*: it actually performs the
 * task from the retrieved context (reads the matching row, computes
 * rates, ranks policies, checks premises, composes explanations from
 * evidence), with each reasoning step gated by the backend's
 * capability profile through deterministic keyed draws. Failures are
 * characteristic, not random noise: a failed lookup misreads the
 * outcome, a failed comparison picks the runner-up, a failed premise
 * check answers the unanswerable, an unfaithful few-shot reader
 * copies the example's context (§6.1).
 */

#ifndef CACHEMIND_LLM_GENERATOR_HH
#define CACHEMIND_LLM_GENERATOR_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "llm/backend.hh"
#include "llm/prompt.hh"
#include "retrieval/context.hh"

namespace cachemind::llm {

/** Consumer of incremental answer-text fragments (streaming). */
using DeltaFn = std::function<void(const std::string &)>;

/**
 * Split answer text into the delta fragments a streaming generation
 * emits: deterministic, boundary-aligned (fragments end at whitespace
 * or newline where possible), and lossless — concatenating the deltas
 * reproduces the input byte-for-byte. Exposed so consumers and tests
 * can pin the streaming/blocking equivalence.
 */
std::vector<std::string> splitAnswerDeltas(const std::string &text);

/** Structured answer, consumed by the graders and the chat layer. */
struct Answer
{
    /** Natural-language response text. */
    std::string text;
    /** Coverage gate outcome (false = the o3-style whiff). */
    bool engaged = true;
    /** Hit/miss verdict for per-access lookups (true = hit). */
    std::optional<bool> says_hit;
    /** Scalar verdict (rates as fractions, counts, aggregates). */
    std::optional<double> number;
    /** Chosen policy for comparison questions. */
    std::optional<std::string> chosen_policy;
    /** Listed values (PCs/sets) for enumeration answers. */
    std::vector<std::uint64_t> listed_values;
    /** The model rejected the question's premise. */
    bool rejected_premise = false;
    /** Diagnostics: the model copied a few-shot example's context. */
    bool copied_example = false;
    /** Evidence strings the model cited (rubric input). */
    std::vector<std::string> evidence;
};

/** Generation-time options. */
struct GenerationOptions
{
    ShotMode shot_mode = ShotMode::ZeroShot;
    /**
     * Streaming pace in tokens per second (0 = unpaced). A real LLM
     * backend emits deltas at its decode rate; the simulated backends
     * replay theirs instantly, which makes every end-to-end latency
     * comparison retrieval-only. With a pace set, answerStreaming
     * sleeps between deltas (~4 bytes/token) so time-to-last-byte
     * includes a generation term. Pacing changes delta *timing* only:
     * the answer and the delta byte split are untouched, and blocking
     * answer() ignores it entirely.
     */
    double tokens_per_second = 0.0;
};

/** One simulated backend answering from retrieval bundles. */
class GeneratorLlm
{
  public:
    explicit GeneratorLlm(BackendKind kind)
        : name_(backendKey(kind)),
          identity_(static_cast<std::uint64_t>(kind)),
          profile_(profileFor(kind))
    {}

    /**
     * Custom backend: answers per `profile`, with its deterministic
     * draws keyed by `name` so they are independent of the built-in
     * kinds. This is how downstream users benchmark their own model
     * through llm::BackendRegistry.
     */
    GeneratorLlm(const std::string &name, CapabilityProfile profile);

    /** Registry key ("gpt-4o") or the custom backend's name. */
    const std::string &name() const { return name_; }
    const CapabilityProfile &profile() const { return profile_; }

    /**
     * Answer a question given its retrieval bundle. The question key
     * defaults to a hash of the query text, so the same (backend,
     * question) pair always yields the same answer.
     */
    Answer answer(const retrieval::ContextBundle &bundle,
                  const GenerationOptions &opts = GenerationOptions{})
        const;

    /**
     * Incremental generation: produce the same Answer as answer()
     * while emitting its text through `on_delta` fragment by fragment
     * (see splitAnswerDeltas). The returned answer is byte-identical
     * to the blocking call — streaming changes when text becomes
     * visible, never what is generated — so the engine's askStream
     * Done event can carry it directly.
     */
    Answer answerStreaming(const retrieval::ContextBundle &bundle,
                           const GenerationOptions &opts,
                           const DeltaFn &on_delta) const;

    /**
     * Assemble the full prompt that `answer` conceptually consumes.
     * answer() itself never builds it: of the prompt, generation reads
     * only the shots, so it takes canonicalShots() directly and never
     * renders the bundle.
     */
    Prompt buildPrompt(const retrieval::ContextBundle &bundle,
                       const GenerationOptions &opts) const;

  private:
    bool roll(std::uint64_t qkey, const char *skill, double p) const;

    Answer answerHitMiss(const retrieval::ContextBundle &bundle,
                         const std::vector<ExampleShot> &shots,
                         std::uint64_t qkey) const;
    Answer answerMissRate(const retrieval::ContextBundle &bundle,
                          std::uint64_t qkey) const;
    Answer answerComparison(const retrieval::ContextBundle &bundle,
                            std::uint64_t qkey) const;
    Answer answerCount(const retrieval::ContextBundle &bundle,
                       std::uint64_t qkey) const;
    Answer answerArithmetic(const retrieval::ContextBundle &bundle,
                            std::uint64_t qkey) const;
    Answer answerListing(const retrieval::ContextBundle &bundle,
                         std::uint64_t qkey) const;
    Answer answerSetStats(const retrieval::ContextBundle &bundle,
                          std::uint64_t qkey) const;
    Answer answerTopPcs(const retrieval::ContextBundle &bundle,
                        std::uint64_t qkey) const;
    Answer answerPcStats(const retrieval::ContextBundle &bundle,
                         std::uint64_t qkey) const;
    Answer answerConcept(const retrieval::ContextBundle &bundle,
                         std::uint64_t qkey) const;
    Answer answerCodeGen(const retrieval::ContextBundle &bundle,
                         std::uint64_t qkey) const;
    Answer answerExplain(const retrieval::ContextBundle &bundle,
                         std::uint64_t qkey) const;

    /** Few-shot context adoption (weak models, poor retrieval). */
    bool maybeCopyExample(const retrieval::ContextBundle &bundle,
                          const std::vector<ExampleShot> &shots,
                          std::uint64_t qkey, Answer &out) const;

    std::string name_;
    /** Salt for identity-dependent draws (enum value or name hash). */
    std::uint64_t identity_;
    CapabilityProfile profile_;
};

} // namespace cachemind::llm

#endif // CACHEMIND_LLM_GENERATOR_HH
