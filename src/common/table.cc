#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace loas {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        panic("TextTable row has %zu cells, expected %zu", cells.size(),
              headers_.size());
    }
    rows_.push_back(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " ");
            os << row[c];
            os << std::string(widths[c] - row[c].size(), ' ') << " |";
        }
        os << "\n";
    };

    emit_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
    }
    os << "\n";
    for (const auto& row : rows_)
        emit_row(row);
    return os.str();
}

std::string
TextTable::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::fmtX(double v, int precision)
{
    return fmt(v, precision) + "x";
}

std::string
TextTable::fmtInt(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count != 0 && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

std::string
TextTable::fmtPct(double fraction, int precision)
{
    return fmt(fraction * 100.0, precision) + "%";
}

CsvWriter::CsvWriter(const std::string& path,
                     std::vector<std::string> headers)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open CSV output file '%s'", path.c_str());
    file_ = f;
    addRow(headers);
}

CsvWriter::~CsvWriter()
{
    std::fclose(static_cast<std::FILE*>(file_));
}

void
CsvWriter::addRow(const std::vector<std::string>& cells)
{
    auto* f = static_cast<std::FILE*>(file_);
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::fprintf(f, "%s%s", i ? "," : "", cells[i].c_str());
    std::fprintf(f, "\n");
}

} // namespace loas
