/**
 * @file
 * Plain-text table and CSV emitters used by the benchmark harnesses to
 * print paper-style result rows.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace loas {

/** Column-aligned ASCII table. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; the cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render the table (headers, rule, rows). */
    std::string str() const;

    /** Format a double with fixed precision. */
    static std::string fmt(double v, int precision = 2);

    /** Format a value followed by a multiplier sign, e.g. "4.08x". */
    static std::string fmtX(double v, int precision = 2);

    /** Format an integer with thousands separators. */
    static std::string fmtInt(std::uint64_t v);

    /** Format a percentage, e.g. "81.2%". */
    static std::string fmtPct(double fraction, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Minimal CSV emitter (one writer per output file). */
class CsvWriter
{
  public:
    /** Open the file and emit the header row. Fails fatally on error. */
    CsvWriter(const std::string& path, std::vector<std::string> headers);
    ~CsvWriter();

    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;

    /** Append one row. */
    void addRow(const std::vector<std::string>& cells);

  private:
    void* file_; // std::FILE*, kept opaque to avoid <cstdio> in the header
};

} // namespace loas
