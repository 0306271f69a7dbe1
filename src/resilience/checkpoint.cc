#include "resilience/checkpoint.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "obs/stats.hh"
#include "resilience/artifact.hh"
#include "resilience/checksum.hh"
#include "resilience/fault.hh"
#include "sim/logging.hh"

namespace msim::resilience
{

namespace
{

constexpr std::uint32_t kCheckpointVersion = 2;

obs::Scalar &
counter(const char *name, const char *desc)
{
    return obs::processRegistry().scalar(
        std::string("resilience.checkpoint.") + name, desc);
}

/** Checksum of journal line @p index: FNV-1a over the line number,
 *  then the payload, so a line only verifies at its own position. */
std::uint64_t
lineChecksum(std::size_t index, std::string_view payload)
{
    const std::uint64_t n = index;
    Checksum sum;
    sum.update(&n, sizeof(n));
    sum.update(payload);
    return sum.digest();
}

/**
 * Append journal line @p index for @p row to @p out: every value as
 * std::to_chars shortest round-trip text (strtod reads back the same
 * double), then `#<16hex>` and a newline.
 */
void
appendJournalLine(std::string &out, std::size_t index,
                  const std::vector<double> &row)
{
    const std::size_t start = out.size();
    char buf[32];
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (c)
            out += ',';
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), row[c]).ptr);
    }
    char tail[24];
    std::snprintf(tail, sizeof(tail), "#%016" PRIx64 "\n",
                  lineChecksum(index, std::string_view(out).substr(start)));
    out += tail;
}

/**
 * Parse journal text into rows, stopping at the first line that is
 * torn, mis-checksummed, out of place or has the wrong width —
 * everything after a bad line is unusable because appends are
 * strictly ordered.
 */
std::vector<std::vector<double>>
parseJournal(const std::string &text, std::size_t cols)
{
    std::vector<std::vector<double>> rows;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break; // torn tail
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        const std::size_t hash = line.rfind('#');
        if (hash == std::string_view::npos || line.size() - hash != 17)
            break;
        std::uint64_t stored = 0;
        const char *const lineEnd = line.data() + line.size();
        const auto [hexEnd, hexErr] =
            std::from_chars(line.data() + hash + 1, lineEnd, stored, 16);
        if (hexErr != std::errc() || hexEnd != lineEnd)
            break;
        const std::string_view payload = line.substr(0, hash);
        if (lineChecksum(rows.size(), payload) != stored)
            break;
        std::vector<double> row;
        row.reserve(cols);
        std::size_t cell = 0;
        while (cell <= payload.size()) {
            std::size_t comma = payload.find(',', cell);
            if (comma == std::string_view::npos)
                comma = payload.size();
            const std::string value(payload.substr(cell, comma - cell));
            char *end = nullptr;
            row.push_back(std::strtod(value.c_str(), &end));
            if (value.empty() || end != value.c_str() + value.size())
                return rows;
            cell = comma + 1;
        }
        if (row.size() != cols)
            break;
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
journalText(const std::vector<std::vector<double>> &rows)
{
    std::string text;
    for (std::size_t i = 0; i < rows.size(); ++i)
        appendJournalLine(text, i, rows[i]);
    return text;
}

} // namespace

Checkpoint::Checkpoint(std::string stem, std::uint64_t fingerprint,
                       std::size_t totalFrames, std::size_t statsCols,
                       std::size_t activityCols)
    : stem_(std::move(stem)), fingerprint_(fingerprint),
      totalFrames_(totalFrames), statsCols_(statsCols),
      activityCols_(activityCols)
{}

std::size_t
Checkpoint::resume()
{
    statsRows_.clear();
    activityRows_.clear();
    frames_ = 0;

    auto manifest = readFileToString(manifestPath());
    if (manifest.ok()) {
        std::uint32_t version = 0;
        std::uint64_t fingerprint = 0;
        std::size_t total = 0, statsCols = 0, activityCols = 0;
        const int got = std::sscanf(
            manifest->c_str(),
            "megsim-checkpoint v%" SCNu32 "\n"
            "fingerprint %" SCNx64 "\n"
            "total %zu stats_cols %zu activity_cols %zu",
            &version, &fingerprint, &total, &statsCols, &activityCols);
        if (got != 5 || version != kCheckpointVersion ||
            fingerprint != fingerprint_ || total != totalFrames_ ||
            statsCols != statsCols_ || activityCols != activityCols_) {
            sim::warn("checkpoint '%s' does not match this run; "
                      "starting over",
                      manifestPath().c_str());
            discard();
        } else {
            auto statsText = readFileToString(statsJournalPath());
            auto activityText =
                readFileToString(activityJournalPath());
            if (statsText.ok() && activityText.ok()) {
                statsRows_ = parseJournal(*statsText, statsCols_);
                activityRows_ =
                    parseJournal(*activityText, activityCols_);
                // A kill between the two appends leaves the stats
                // journal one line ahead; the minimum drops it.
                frames_ = std::min({statsRows_.size(),
                                    activityRows_.size(),
                                    totalFrames_});
                statsRows_.resize(frames_);
                activityRows_.resize(frames_);
            } else {
                sim::warn("checkpoint journals for '%s' unreadable; "
                          "starting over",
                          stem_.c_str());
                discard();
            }
        }
    } else if (manifest.error().code != Errc::NotFound) {
        sim::warn("checkpoint manifest '%s' unreadable: %s",
                  manifestPath().c_str(),
                  manifest.error().message.c_str());
    }

    if (frames_ > 0) {
        // Drop any torn or unmatched journal tail so the files on disk
        // exactly mirror the recovered state before we append to them.
        auto statsOk = atomicWriteFile(statsJournalPath(),
                                       journalText(statsRows_));
        auto activityOk = atomicWriteFile(activityJournalPath(),
                                          journalText(activityRows_));
        if (!statsOk.ok() || !activityOk.ok()) {
            failWrites("truncating journals");
        } else {
            counter("frames_resumed",
                    "frames recovered from checkpoints") +=
                static_cast<double>(frames_);
            sim::inform("resuming '%s' from checkpoint: %zu/%zu frames "
                        "already done",
                        stem_.c_str(), frames_, totalFrames_);
        }
    } else {
        discard();
    }

    if (!writeFailed_) {
        statsJnl_.open(statsJournalPath(), std::ios::app);
        activityJnl_.open(activityJournalPath(), std::ios::app);
        if (!statsJnl_ || !activityJnl_)
            failWrites("opening journals");
        else
            writeManifest();
    }
    return frames_;
}

void
Checkpoint::append(const std::vector<double> &statsRow,
                   const std::vector<double> &activityRow)
{
    if (writeFailed_)
        return;
    if (FaultInjector::global().failWrite(statsJournalPath())) {
        failWrites("appending to journals (injected)");
        return;
    }
    // One buffered write and a flush per journal: once flushed the
    // line is in the page cache and survives SIGKILL. The lines
    // themselves are the commit record.
    line_.clear();
    appendJournalLine(line_, frames_, statsRow);
    statsJnl_.write(line_.data(),
                    static_cast<std::streamsize>(line_.size()));
    statsJnl_.flush();
    line_.clear();
    appendJournalLine(line_, frames_, activityRow);
    activityJnl_.write(line_.data(),
                       static_cast<std::streamsize>(line_.size()));
    activityJnl_.flush();
    if (!statsJnl_ || !activityJnl_) {
        failWrites("appending to journals");
        return;
    }
    ++frames_;
}

void
Checkpoint::writeManifest()
{
    char text[256];
    std::snprintf(text, sizeof(text),
                  "megsim-checkpoint v%" PRIu32 "\n"
                  "fingerprint %016" PRIx64 "\n"
                  "total %zu stats_cols %zu activity_cols %zu\n",
                  kCheckpointVersion, fingerprint_, totalFrames_,
                  statsCols_, activityCols_);
    auto written = atomicWriteFile(manifestPath(), text);
    if (!written.ok())
        failWrites("writing the manifest");
}

void
Checkpoint::failWrites(const char *what)
{
    if (writeFailed_)
        return;
    writeFailed_ = true;
    ++counter("write_failures", "checkpoints disabled by I/O errors");
    sim::warn("checkpointing of '%s' disabled: %s failed — the run "
              "continues without crash protection",
              stem_.c_str(), what);
}

void
Checkpoint::discard()
{
    statsJnl_.close();
    activityJnl_.close();
    std::error_code ec;
    std::filesystem::remove(manifestPath(), ec);
    std::filesystem::remove(statsJournalPath(), ec);
    std::filesystem::remove(activityJournalPath(), ec);
}

} // namespace msim::resilience
