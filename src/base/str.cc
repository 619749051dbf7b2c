#include "base/str.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace cachemind::str {

std::string
toLower(const std::string &s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string &s, char sep, bool keep_empty)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (keep_empty || !cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (keep_empty || !cur.empty())
        out.push_back(cur);
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
containsNoCase(const std::string &haystack, const std::string &needle)
{
    if (needle.empty())
        return true;
    return toLower(haystack).find(toLower(needle)) != std::string::npos;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    if (from.empty())
        return s;
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

std::optional<std::uint64_t>
parseHex(const std::string &s)
{
    std::string body = toLower(trim(s));
    if (startsWith(body, "0x"))
        body = body.substr(2);
    if (body.empty() || body.size() > 16)
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : body) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

std::optional<std::uint64_t>
parseU64(const std::string &s)
{
    const std::string body = trim(s);
    if (body.empty())
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : body) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

std::optional<double>
parseDouble(const std::string &s)
{
    std::string body = trim(s);
    if (!body.empty() && body.back() == '%')
        body.pop_back();
    if (body.empty())
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(body.c_str(), &end);
    if (end == body.c_str() || *end != '\0')
        return std::nullopt;
    return v;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
fixed(double v, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << v;
    return os.str();
}

std::string
percent(double ratio, int decimals)
{
    return fixed(ratio * 100.0, decimals) + "%";
}

std::vector<std::uint64_t>
extractHexTokens(const std::string &text)
{
    std::vector<std::uint64_t> out;
    const std::string lower = toLower(text);
    for (std::size_t i = 0; i + 2 < lower.size(); ++i) {
        if (lower[i] == '0' && lower[i + 1] == 'x') {
            std::size_t j = i + 2;
            while (j < lower.size() &&
                   std::isxdigit(static_cast<unsigned char>(lower[j]))) {
                ++j;
            }
            if (j > i + 2) {
                if (auto v = parseHex(lower.substr(i, j - i)))
                    out.push_back(*v);
            }
            i = j;
        }
    }
    return out;
}

std::vector<std::uint64_t>
extractIntTokens(const std::string &text)
{
    std::vector<std::uint64_t> out;
    std::size_t i = 0;
    while (i < text.size()) {
        if (std::isdigit(static_cast<unsigned char>(text[i]))) {
            // Skip hex literals entirely: handled by extractHexTokens.
            if (text[i] == '0' && i + 1 < text.size() &&
                (text[i + 1] == 'x' || text[i + 1] == 'X')) {
                i += 2;
                while (i < text.size() &&
                       std::isxdigit(static_cast<unsigned char>(text[i]))) {
                    ++i;
                }
                continue;
            }
            if (i >= 1 && (text[i - 1] == 'x' || text[i - 1] == 'X')) {
                while (i < text.size() &&
                       std::isxdigit(static_cast<unsigned char>(text[i]))) {
                    ++i;
                }
                continue;
            }
            std::size_t j = i;
            std::uint64_t v = 0;
            while (j < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[j]))) {
                v = v * 10 + static_cast<std::uint64_t>(text[j] - '0');
                ++j;
            }
            out.push_back(v);
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

std::size_t
cappedEditDistance(std::string_view a, std::string_view b)
{
    constexpr std::size_t kCap = 3;
    constexpr std::size_t kBand = 2 * (kCap - 1) + 1;
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if ((n > m ? n - m : m - n) >= kCap)
        return kCap;
    // Cell k of row i holds the capped distance between a[0, i) and
    // b[0, j) for j = i + k - (kCap - 1); cells off the table hold kCap.
    std::size_t prev[kBand];
    std::size_t cur[kBand];
    for (std::size_t k = 0; k < kBand; ++k) {
        const std::size_t j = k - (kCap - 1); // wraps when j < 0
        prev[k] = k >= kCap - 1 && j <= m ? j : kCap;
    }
    for (std::size_t i = 1; i <= n; ++i) {
        std::size_t row_min = kCap;
        for (std::size_t k = 0; k < kBand; ++k) {
            const std::size_t j = i + k - (kCap - 1);
            const bool on_table = i + k >= kCap - 1 && j <= m;
            std::size_t d = kCap;
            if (on_table && j == 0) {
                d = std::min(i, kCap);
            } else if (on_table) {
                d = prev[k] + (a[i - 1] == b[j - 1] ? 0 : 1);
                if (k + 1 < kBand)
                    d = std::min(d, prev[k + 1] + 1);
                if (k > 0)
                    d = std::min(d, cur[k - 1] + 1);
                d = std::min(d, kCap);
            }
            cur[k] = d;
            row_min = std::min(row_min, d);
        }
        if (row_min >= kCap)
            return kCap;
        std::copy(cur, cur + kBand, prev);
    }
    return prev[m + (kCap - 1) - n];
}

} // namespace cachemind::str
