/**
 * @file
 * Checkpoint/resume for long simulation passes.
 *
 * A checkpoint is three files next to the cache artifacts:
 *
 *   <stem>.ckpt.manifest      versioned, written once (atomically)
 *                             when the journals are opened:
 *                               megsim-checkpoint v2
 *                               fingerprint <16hex>
 *                               total <N> stats_cols <k> activity_cols <m>
 *   <stem>.ckpt.stats.jnl     one line per completed frame: the row's
 *   <stem>.ckpt.activity.jnl  values as shortest round-trip text, then
 *                             `#<16hex>`, an FNV-1a checksum over the
 *                             line number and the values; appended
 *                             with one write and a flush
 *
 * The journal lines are the commit record: a flushed line is in the
 * page cache and survives SIGKILL. A killed run leaves at worst one
 * torn line, or a stats journal one line ahead of the activity
 * journal; resume() recovers the longest prefix that parses and
 * checksums in both journals, truncates the journals back to it, and
 * the pass continues from there. A manifest of another version,
 * scene, config or shape means "not this run" and the pass starts
 * over. Because every frame simulates cold (order-independent), a
 * resumed run is bit-identical to an uninterrupted one.
 */

#ifndef MSIM_RESILIENCE_CHECKPOINT_HH
#define MSIM_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "resilience/expected.hh"

namespace msim::resilience
{

class Checkpoint
{
  public:
    /**
     * @p stem is the directory + artifact stem the checkpoint files
     * hang off; @p fingerprint keys the checkpoint to its scene and
     * GPU config; the column counts validate journal rows.
     */
    Checkpoint(std::string stem, std::uint64_t fingerprint,
               std::size_t totalFrames, std::size_t statsCols,
               std::size_t activityCols);

    /**
     * Recover a previous run's progress. Returns the number of
     * completed frames recovered (0 when there is no usable
     * checkpoint); their rows are in statsRows()/activityRows().
     * Also opens the journals for appending.
     */
    std::size_t resume();

    const std::vector<std::vector<double>> &statsRows() const
    {
        return statsRows_;
    }

    const std::vector<std::vector<double>> &activityRows() const
    {
        return activityRows_;
    }

    /** Journal one completed frame (the commit). */
    void append(const std::vector<double> &statsRow,
                const std::vector<double> &activityRow);

    /** Delete the checkpoint files (pass finished or state unusable). */
    void discard();

    std::size_t frames() const { return frames_; }
    bool writable() const { return !writeFailed_; }

    std::string manifestPath() const { return stem_ + ".ckpt.manifest"; }
    std::string statsJournalPath() const
    {
        return stem_ + ".ckpt.stats.jnl";
    }
    std::string activityJournalPath() const
    {
        return stem_ + ".ckpt.activity.jnl";
    }

  private:
    void writeManifest();
    void failWrites(const char *what);

    std::string stem_;
    std::uint64_t fingerprint_;
    std::size_t totalFrames_;
    std::size_t statsCols_;
    std::size_t activityCols_;

    std::vector<std::vector<double>> statsRows_;
    std::vector<std::vector<double>> activityRows_;
    std::ofstream statsJnl_;
    std::ofstream activityJnl_;
    std::string line_; // append() scratch, capacity kept
    std::size_t frames_ = 0;
    bool writeFailed_ = false;
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_CHECKPOINT_HH
