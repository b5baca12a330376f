#include "xfraud/data/log_io.h"

#include <fstream>
#include <sstream>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/parse_number.h"

namespace xfraud::data {

namespace {

constexpr char kHeader[] =
    "txn_id\tbuyer_id\temail\tpayment_token\tshipping_address\tlabel\t"
    "period\tfeatures";

const char* LabelName(int8_t label) {
  switch (label) {
    case graph::kLabelFraud:
      return "fraud";
    case graph::kLabelBenign:
      return "benign";
    default:
      return "unknown";
  }
}

Result<int8_t> ParseLabel(const std::string& text) {
  if (text == "fraud") return graph::kLabelFraud;
  if (text == "benign") return graph::kLabelBenign;
  if (text == "unknown") return graph::kLabelUnknown;
  return Status::InvalidArgument("bad label: " + text);
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

Status WriteTransactionLog(
    const std::vector<graph::TransactionRecord>& records,
    const std::string& path) {
  std::ostringstream out;
  out << kHeader << "\n";
  for (const auto& r : records) {
    out << r.txn_id << '\t' << r.buyer_id << '\t' << r.email << '\t'
        << r.payment_token << '\t' << r.shipping_address << '\t'
        << LabelName(r.label) << '\t' << r.period << '\t';
    for (size_t i = 0; i < r.features.size(); ++i) {
      if (i > 0) out << ',';
      out << r.features[i];
    }
    out << '\n';
  }
  return AtomicWriteFile(path, out.str());
}

Result<std::vector<graph::TransactionRecord>> ReadTransactionLog(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing or bad header in " + path);
  }
  std::vector<graph::TransactionRecord> records;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fields = SplitTabs(line);
    if (fields.size() != 8) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 8 fields, got " +
                                     std::to_string(fields.size()));
    }
    graph::TransactionRecord r;
    r.txn_id = fields[0];
    r.buyer_id = fields[1];
    r.email = fields[2];
    r.payment_token = fields[3];
    r.shipping_address = fields[4];
    Result<int8_t> label = ParseLabel(fields[5]);
    if (!label.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + label.status().message());
    }
    r.label = label.value();
    Result<int32_t> period = ParseNumber<int32_t>(fields[6]);
    if (!period.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad period " + fields[6]);
    }
    r.period = period.value();
    std::stringstream feats(fields[7]);
    std::string token;
    while (std::getline(feats, token, ',')) {
      Result<float> feature = ParseNumber<float>(token);
      if (!feature.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": bad feature " + token);
      }
      r.features.push_back(feature.value());
    }
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace xfraud::data
