/**
 * @file
 * Text primitives for semantic retrieval: tokenizer, feature-hashing
 * sentence embedder, cosine similarity, and a brute-force vector
 * index.
 *
 * The embedder is a deterministic hashed bag-of-words over word
 * unigrams, bigrams, and character trigrams — the same family of
 * sparse-to-dense embeddings used by practical retrieval baselines.
 * It reproduces the paper's key observation about embedding-based RAG
 * on traces: two rows differing in a few hex digits map to nearly
 * identical vectors, so cosine retrieval cannot separate them
 * (§6.2, Figure 9).
 */

#ifndef CACHEMIND_TEXT_EMBEDDING_HH
#define CACHEMIND_TEXT_EMBEDDING_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cachemind::text {

/** Lower-cased word tokens; hex literals are kept as single tokens. */
std::vector<std::string> tokenize(const std::string &text);

/** Cosine similarity of two equal-dimension vectors. */
double cosine(const std::vector<float> &a, const std::vector<float> &b);

/** Deterministic feature-hashing embedder. */
class HashEmbedder
{
  public:
    explicit HashEmbedder(std::size_t dims = 128);

    /** Embed text into an L2-normalised vector. */
    std::vector<float> embed(const std::string &text) const;

    /** embed() of text that tokenize() already split. */
    std::vector<float>
    embedTokens(const std::vector<std::string> &tokens) const;

    std::size_t dims() const { return dims_; }

    /** Convenience: cosine similarity of two texts. */
    double similarity(const std::string &a, const std::string &b) const;

  private:
    /** Add the feature whose FNV-1a hash is `h`. */
    void addFeature(std::vector<float> &v, std::uint64_t h,
                    float weight) const;

    std::size_t dims_;
};

/** One retrieval hit from the vector index. */
struct IndexHit
{
    std::size_t doc = 0;
    double score = 0.0;
};

/**
 * Brute-force dense index (exact top-k). Documents carry a payload
 * string (rendered content) and an opaque tag for evaluation.
 */
class VectorIndex
{
  public:
    explicit VectorIndex(const HashEmbedder &embedder)
        : embedder_(embedder)
    {}

    /** Add a document; returns its id. */
    std::size_t add(std::string payload, std::string tag = "");

    /** Exact top-k by cosine similarity to the query text. */
    std::vector<IndexHit> topK(const std::string &query,
                               std::size_t k) const;

    const std::string &payload(std::size_t doc) const
    {
        return payloads_[doc];
    }
    const std::string &tag(std::size_t doc) const { return tags_[doc]; }
    std::size_t size() const { return payloads_.size(); }

  private:
    const HashEmbedder &embedder_;
    std::vector<std::vector<float>> vectors_;
    std::vector<std::string> payloads_;
    std::vector<std::string> tags_;
};

/**
 * Fuzzy name matcher: ranks candidate names against a query using a
 * blend of embedding similarity, token membership, and edit distance.
 * Used by Sieve's trace-level filtering to extract workload/policy
 * names from free text (§3.2.1).
 */
struct NameMatch
{
    std::string name;
    double score = 0.0;
};

/** A query tokenized and embedded once, for ranking many vocabularies. */
struct EmbeddedQuery
{
    EmbeddedQuery(const std::string &text, const HashEmbedder &embedder);

    std::vector<std::string> tokens;
    std::vector<float> vec;
    /** Squared L2 norm of `vec`, as cosine() sums it. */
    double norm2 = 0.0;
};

/**
 * Candidate names prepared for ranking: each name's lower-case form
 * and embedding are computed once, at construction, instead of once
 * per question.
 */
class NameVocabulary
{
  public:
    NameVocabulary(std::vector<std::string> names,
                   const HashEmbedder &embedder);

    /** Every name with its score, best first (ties by name). */
    std::vector<NameMatch> rank(const EmbeddedQuery &query) const;

    const std::vector<std::string> &names() const { return names_; }

  private:
    struct Entry
    {
        std::string lower;
        /** Non-zero embedding dims, ascending: names are short. */
        std::vector<std::pair<std::uint32_t, float>> dims;
        double norm2 = 0.0;
    };

    std::vector<std::string> names_;
    std::vector<Entry> entries_;
};

/** One-shot ranking: NameVocabulary(names).rank(EmbeddedQuery(query)). */
std::vector<NameMatch> rankNames(const std::string &query,
                                 const std::vector<std::string> &names,
                                 const HashEmbedder &embedder);

} // namespace cachemind::text

#endif // CACHEMIND_TEXT_EMBEDDING_HH
