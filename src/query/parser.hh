/**
 * @file
 * Natural-language query parser (§3.2.1–3.2.2 of the paper).
 *
 * Stage 1 extracts workload and policy names with the semantic name
 * matcher (embedding + fuzzy ranking); stage 2 extracts symbolic PC,
 * address, and set filters; keyword rules classify the intent.
 */

#ifndef CACHEMIND_QUERY_PARSER_HH
#define CACHEMIND_QUERY_PARSER_HH

#include "query/parsed_query.hh"
#include "text/embedding.hh"

namespace cachemind::query {

/** Parser configured with the known workload and policy vocabulary. */
class NlQueryParser
{
  public:
    NlQueryParser(std::vector<std::string> workload_names,
                  std::vector<std::string> policy_names);

    /** Parse free text into a structured query. */
    ParsedQuery parse(const std::string &text) const;

    const std::vector<std::string> &workloadNames() const
    {
        return workloads_.names();
    }
    const std::vector<std::string> &policyNames() const
    {
        return policies_.names();
    }

  private:
    QueryIntent classifyIntent(const std::string &lower,
                               const ParsedQuery &slots) const;

    text::HashEmbedder embedder_;
    text::NameVocabulary workloads_;
    text::NameVocabulary policies_;
};

} // namespace cachemind::query

#endif // CACHEMIND_QUERY_PARSER_HH
