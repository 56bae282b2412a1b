#include "ml/dataset_io.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "util/csv.h"

namespace paws {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      out.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

StatusOr<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("dataset csv: bad number '" + s + "'");
  }
  return v;
}

// A time step or cell id: an integral number within int range (NaN fails
// the range check), so the cast below is always defined.
StatusOr<int> ParseInt(const std::string& s) {
  PAWS_ASSIGN_OR_RETURN(const double v, ParseDouble(s));
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()) ||
      v != std::trunc(v)) {
    return Status::InvalidArgument("dataset csv: bad integer '" + s + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

std::string DatasetToCsv(const Dataset& data) {
  std::string out = "label,effort,time_step,cell_id";
  for (int f = 0; f < data.num_features(); ++f) {
    out += ",f" + std::to_string(f);
  }
  out += '\n';
  for (int i = 0; i < data.size(); ++i) {
    out += std::to_string(data.label(i));
    out += ',';
    out += FormatDouble(data.effort(i), 17);
    out += ',';
    out += std::to_string(data.time_step(i));
    out += ',';
    out += std::to_string(data.cell_id(i));
    const double* row = data.Row(i);
    for (int f = 0; f < data.num_features(); ++f) {
      out += ',';
      out += FormatDouble(row[f], 17);
    }
    out += '\n';
  }
  return out;
}

Status WriteDatasetCsv(const Dataset& data, const std::string& path) {
  return WriteStringToFile(DatasetToCsv(data), path);
}

StatusOr<Dataset> DatasetFromCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("dataset csv: empty input");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 5 || header[0] != "label" || header[1] != "effort" ||
      header[2] != "time_step" || header[3] != "cell_id") {
    return Status::InvalidArgument(
        "dataset csv: header must start with label,effort,time_step,cell_id "
        "and contain at least one feature column");
  }
  const int k = static_cast<int>(header.size()) - 4;
  Dataset data(k);
  std::vector<double> x(k);
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "dataset csv: row " + std::to_string(line_no) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(header.size()));
    }
    PAWS_ASSIGN_OR_RETURN(const double label, ParseDouble(fields[0]));
    if (label != 0.0 && label != 1.0) {
      return Status::InvalidArgument("dataset csv: non-binary label at row " +
                                     std::to_string(line_no));
    }
    PAWS_ASSIGN_OR_RETURN(const double effort, ParseDouble(fields[1]));
    if (!(effort >= 0.0)) {
      return Status::InvalidArgument(
          "dataset csv: negative or NaN effort at row " +
          std::to_string(line_no));
    }
    PAWS_ASSIGN_OR_RETURN(const int t, ParseInt(fields[2]));
    PAWS_ASSIGN_OR_RETURN(const int cell, ParseInt(fields[3]));
    for (int f = 0; f < k; ++f) {
      PAWS_ASSIGN_OR_RETURN(x[f], ParseDouble(fields[4 + f]));
    }
    data.AddRow(x, static_cast<int>(label), effort, t, cell);
  }
  return data;
}

StatusOr<Dataset> ReadDatasetCsv(const std::string& path) {
  PAWS_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return DatasetFromCsv(text);
}

Status ArchiveLoaded(Dataset& d) {
  const size_t n = d.y_.size();
  if (d.num_features_ <= 0 || d.effort_.size() != n ||
      d.time_step_.size() != n || d.cell_id_.size() != n ||
      d.x_.size() != n * static_cast<uint64_t>(d.num_features_)) {
    return Status::InvalidArgument("dataset: column size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    if (d.y_[i] != 0 && d.y_[i] != 1) {
      return Status::InvalidArgument("dataset: non-binary label at row " +
                                     std::to_string(i));
    }
    if (!(d.effort_[i] >= 0.0)) {
      return Status::InvalidArgument("dataset: negative effort at row " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

Status WriteDatasetBinary(const Dataset& data, const std::string& path) {
  return WriteArchiveFile(data, path);
}

StatusOr<Dataset> ReadDatasetBinary(const std::string& path) {
  Dataset data(1);
  PAWS_RETURN_IF_ERROR(ReadArchiveFile(path, &data));
  return data;
}

}  // namespace paws
