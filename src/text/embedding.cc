#include "text/embedding.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"

namespace cachemind::text {

std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string cur;
    const std::string lower = str::toLower(text);
    for (std::size_t i = 0; i < lower.size(); ++i) {
        const char c = lower[i];
        const bool word_char =
            std::isalnum(static_cast<unsigned char>(c)) || c == '_';
        if (word_char) {
            cur.push_back(c);
        } else {
            if (!cur.empty())
                tokens.push_back(cur);
            cur.clear();
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

namespace {

double
squaredNorm(const std::vector<float> &v)
{
    double norm = 0.0;
    for (const float x : v)
        norm += static_cast<double>(x) * x;
    return norm;
}

/** cosine()'s last step, from its dot product and squared norms. */
double
cosineOf(double dot, double na, double nb)
{
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot / std::sqrt(na * nb);
}

} // namespace

double
cosine(const std::vector<float> &a, const std::vector<float> &b)
{
    CM_ASSERT(a.size() == b.size(), "cosine dims mismatch");
    double dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        dot += static_cast<double>(a[i]) * b[i];
    return cosineOf(dot, squaredNorm(a), squaredNorm(b));
}

HashEmbedder::HashEmbedder(std::size_t dims) : dims_(dims)
{
    CM_ASSERT(dims_ >= 8, "embedder needs at least 8 dims");
}

void
HashEmbedder::addFeature(std::vector<float> &v, std::uint64_t h,
                         float weight) const
{
    const std::size_t slot = static_cast<std::size_t>(h % dims_);
    // Signed hashing reduces collision bias.
    const float sign = (splitMix64(h) & 1) ? 1.0f : -1.0f;
    v[slot] += sign * weight;
}

std::vector<float>
HashEmbedder::embed(const std::string &text) const
{
    return embedTokens(tokenize(text));
}

std::vector<float>
HashEmbedder::embedTokens(const std::vector<std::string> &tokens) const
{
    // Features are hashed in place: a bigram is the bytes of
    // tok + "_" + next, a trigram those of "#" + three chars.
    constexpr std::uint64_t kTrigramBasis = fnv1a("#");
    std::vector<float> v(dims_, 0.0f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::uint64_t h = fnv1a(tokens[i]);
        addFeature(v, h, 1.0f);
        if (i + 1 < tokens.size())
            addFeature(v, fnv1aExtend(fnv1aExtend(h, "_"), tokens[i + 1]),
                       0.5f);
        // Character trigrams give robustness to morphology.
        const std::string_view t = tokens[i];
        if (t.size() > 3) {
            for (std::size_t k = 0; k + 3 <= t.size(); ++k)
                addFeature(v, fnv1aExtend(kTrigramBasis, t.substr(k, 3)),
                           0.25f);
        }
    }
    const double norm = squaredNorm(v);
    if (norm > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (float &x : v)
            x *= inv;
    }
    return v;
}

double
HashEmbedder::similarity(const std::string &a, const std::string &b)
    const
{
    return cosine(embed(a), embed(b));
}

std::size_t
VectorIndex::add(std::string payload, std::string tag)
{
    vectors_.push_back(embedder_.embed(payload));
    payloads_.push_back(std::move(payload));
    tags_.push_back(std::move(tag));
    return payloads_.size() - 1;
}

std::vector<IndexHit>
VectorIndex::topK(const std::string &query, std::size_t k) const
{
    const auto q = embedder_.embed(query);
    std::vector<IndexHit> hits;
    hits.reserve(vectors_.size());
    for (std::size_t i = 0; i < vectors_.size(); ++i)
        hits.push_back(IndexHit{i, cosine(q, vectors_[i])});
    const std::size_t keep = std::min(k, hits.size());
    std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(),
                      [](const IndexHit &a, const IndexHit &b) {
                          if (a.score != b.score)
                              return a.score > b.score;
                          return a.doc < b.doc;
                      });
    hits.resize(keep);
    return hits;
}

EmbeddedQuery::EmbeddedQuery(const std::string &text,
                             const HashEmbedder &embedder)
    : tokens(tokenize(text)), vec(embedder.embedTokens(tokens)),
      norm2(squaredNorm(vec))
{
}

NameVocabulary::NameVocabulary(std::vector<std::string> names,
                               const HashEmbedder &embedder)
    : names_(std::move(names))
{
    entries_.reserve(names_.size());
    for (const auto &name : names_) {
        Entry e;
        e.lower = str::toLower(name);
        const auto vec = embedder.embed(name);
        for (std::size_t i = 0; i < vec.size(); ++i) {
            if (vec[i] != 0.0f)
                e.dims.emplace_back(static_cast<std::uint32_t>(i), vec[i]);
        }
        e.norm2 = squaredNorm(vec);
        entries_.push_back(std::move(e));
    }
}

std::vector<NameMatch>
NameVocabulary::rank(const EmbeddedQuery &query) const
{
    std::vector<NameMatch> out;
    out.reserve(names_.size());
    for (std::size_t n = 0; n < names_.size(); ++n) {
        const Entry &e = entries_[n];
        // cosine(query, name): a zero dim adds nothing to the dot.
        double dot = 0.0;
        for (const auto &[dim, x] : e.dims)
            dot += static_cast<double>(query.vec[dim]) * x;
        double score = cosineOf(dot, query.norm2, e.norm2);
        // Exact token membership dominates.
        for (const auto &tok : query.tokens) {
            if (tok == e.lower) {
                score += 1.0;
                break;
            }
        }
        // Light fuzzy credit for near-miss spellings ("beladys"): only
        // distances 0-2 to names longer than 3 characters earn any.
        if (e.lower.size() > 3) {
            std::size_t best_ed = 3;
            for (const auto &tok : query.tokens)
                best_ed = std::min(best_ed,
                                   str::cappedEditDistance(tok, e.lower));
            if (best_ed <= 2)
                score += 0.5 * (3.0 - static_cast<double>(best_ed)) / 3.0;
        }
        out.push_back(NameMatch{names_[n], score});
    }
    std::sort(out.begin(), out.end(),
              [](const NameMatch &a, const NameMatch &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.name < b.name;
              });
    return out;
}

std::vector<NameMatch>
rankNames(const std::string &query,
          const std::vector<std::string> &names,
          const HashEmbedder &embedder)
{
    return NameVocabulary(names, embedder)
        .rank(EmbeddedQuery(query, embedder));
}

} // namespace cachemind::text
