#ifndef PAWS_ML_DATASET_IO_H_
#define PAWS_ML_DATASET_IO_H_

#include <string>

#include "ml/dataset.h"
#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// Dataset import/export in two formats sharing one encoding stack:
///
/// - *Binary* (Write/ReadDatasetBinary, or SaveRecord/LoadRecord of a
///   Dataset into an open archive): the archive layer models and snapshots
///   use — endian-safe, CRC-checked,
///   bit-exact on doubles, and the natural companion to a model snapshot
///   (same container, same corruption guarantees).
/// - *CSV* (below): interchange with SMART-style exports.
///
/// CSV import/export for datasets, so the pipeline can run on real
/// SMART-style exports instead of the synthetic simulator. The format is
/// the one the dataset builders produce:
///
///   label,effort,time_step,cell_id,f0,f1,...,f{k-1}
///
/// - `label` is 0/1, `effort` a non-negative float (km patrolled in the
///   cell during the time step);
/// - `time_step` and `cell_id` are optional integers (-1 when absent);
/// - remaining columns are the static features plus (by the paper's
///   convention) the lagged patrol coverage as the final feature.
/// The header row is required and validated on read.

/// Serializes `data` to CSV text.
std::string DatasetToCsv(const Dataset& data);

/// Writes `data` to `path` (created or truncated).
Status WriteDatasetCsv(const Dataset& data, const std::string& path);

/// Parses a dataset from CSV text. Fails with InvalidArgument on malformed
/// headers, ragged rows, non-binary labels, or negative effort.
StatusOr<Dataset> DatasetFromCsv(const std::string& text);

/// Reads a dataset from a CSV file.
StatusOr<Dataset> ReadDatasetCsv(const std::string& path);

/// Whole-file binary round trip (one dataset per archive, a "DSET"
/// section), bit-exact on features and efforts. Validation on load mirrors
/// the CSV reader: binary labels, non-negative efforts, consistent widths.
Status WriteDatasetBinary(const Dataset& data, const std::string& path);
StatusOr<Dataset> ReadDatasetBinary(const std::string& path);

}  // namespace paws

#endif  // PAWS_ML_DATASET_IO_H_
