/**
 * @file
 * Open-loop plumbing shared by serve_ladder and its fleet probe: a paced
 * send schedule and a thread that stamps when each reply became ready.
 * Latency runs from a request's due time, so a stalled generator or a
 * backed-up service charges the wait to every request behind it.
 */
#ifndef PERFBENCH_OPEN_LOOP_H
#define PERFBENCH_OPEN_LOOP_H

#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/**
 * Spins until @p due. The generator busy-waits instead of sleeping: on
 * a virtual machine a sleeping thread can wake milliseconds late, which
 * would skew the schedule and open idle gaps the coalescer acts on. It
 * costs the generator one CPU while an open-loop phase runs.
 */
inline void
WaitUntil(Clock::time_point due)
{
    while (Clock::now() < due) {
    }
}

/** Due time of send @p i at @p rate per second from @p start. */
inline Clock::time_point
DueAt(Clock::time_point start, std::size_t i, double rate)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
}

/**
 * Watches outstanding reply handles on its own thread and calls
 * @p settle with the wall time at which each was first seen ready.
 * Every sweep polls every outstanding handle, because replies can
 * complete out of order (the services score on several device threads
 * at once); a sweep that finds nothing ready sleeps kPollInterval, which
 * bounds how late a reply is stamped. @p settle runs on the collector
 * thread; results it writes are safe to read after Finish() returns.
 */
template <typename Handle>
class ReplyCollector {
 public:
    struct Item {
        Handle handle;
        Clock::time_point due;
        std::size_t index = 0;
    };
    using Ready = std::function<bool(Handle&)>;
    using Settle = std::function<void(Item&, Clock::time_point)>;

    static constexpr std::chrono::microseconds kPollInterval{50};

    ReplyCollector(Ready ready, Settle settle)
        : ready_(std::move(ready)), settle_(std::move(settle)),
          thread_([this] { Loop(); })
    {
    }
    ~ReplyCollector() { Finish(); }
    ReplyCollector(const ReplyCollector&) = delete;
    ReplyCollector& operator=(const ReplyCollector&) = delete;

    void Add(Item item)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        incoming_.push_back(std::move(item));
    }

    /** Waits until every added reply has settled, then joins. */
    void Finish()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        if (thread_.joinable()) {
            thread_.join();
        }
    }

 private:
    void Loop()
    {
        std::vector<Item> outstanding;
        for (;;) {
            bool last = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                for (Item& item : incoming_) {
                    outstanding.push_back(std::move(item));
                }
                incoming_.clear();
                last = done_;
            }
            bool progressed = false;
            std::size_t kept = 0;
            for (Item& item : outstanding) {
                if (ready_(item.handle)) {
                    settle_(item, Clock::now());
                    progressed = true;
                } else {
                    outstanding[kept++] = std::move(item);
                }
            }
            outstanding.resize(kept);
            if (last && outstanding.empty()) {
                return;
            }
            if (!progressed) {
                std::this_thread::sleep_for(kPollInterval);
            }
        }
    }

    Ready ready_;
    Settle settle_;
    std::mutex mutex_;
    std::vector<Item> incoming_;
    bool done_ = false;
    std::thread thread_;  // last: starts after the members it uses
};

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H
