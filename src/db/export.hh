/**
 * @file
 * Artifact export for the trace database: per-trace CSV dataframes
 * (the §4.3 schema, flat columns) and metadata/description dumps —
 * the open-artifact format the paper promises alongside
 * CacheMindBench — plus content digests that pin a build's output.
 */

#ifndef CACHEMIND_DB_EXPORT_HH
#define CACHEMIND_DB_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "db/database.hh"

namespace cachemind::db {

/** Options controlling CSV export. */
struct ExportOptions
{
    /** Cap on exported rows (0 = all). */
    std::size_t max_rows = 0;
    /** Include the snapshot/history columns (wide rows). */
    bool include_snapshots = true;
};

/** CSV header line for the per-access schema. */
std::string csvHeader(const ExportOptions &options = ExportOptions{});

/** Render one row as a CSV line (no trailing newline). */
std::string csvRow(const TraceTable &table, std::size_t i,
                   const ExportOptions &options = ExportOptions{});

/** Stream one trace entry as CSV (header + rows). */
void exportEntryCsv(const TraceEntry &entry, std::ostream &os,
                    const ExportOptions &options = ExportOptions{});

/**
 * Stream the whole database as a manifest: one block per entry with
 * key, description, metadata, and row/PC counts.
 */
void exportManifest(const TraceDatabase &db, std::ostream &os);

/**
 * FNV-1a digest of a table: every columnar field and both dictionary
 * ids of every row, plus every 7th materialised row (string columns
 * and the values of the snapshot, score and history columns). Equal
 * tables give equal digests.
 */
std::uint64_t tableDigest(const TraceTable &table);

/**
 * FNV-1a digest of a database: each entry's key, workload, policy,
 * metadata, description and tableDigest, in key order. Two builds are
 * byte-identical exactly when their digests match (up to hash
 * collisions).
 */
std::uint64_t databaseDigest(const TraceDatabase &db);

} // namespace cachemind::db

#endif // CACHEMIND_DB_EXPORT_HH
