/**
 * @file
 * task_timeline: trace the Task Spawn Unit's decisions on one
 * workload and render an ASCII timeline of task lifetimes — which
 * spawn created each task, how long it lived, and where squashes
 * hit. A compact way to *see* control-equivalent spawning at work.
 *
 * Usage: task_timeline [workload] [scale] [maxTasks]
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "polyflow.hh"

using namespace polyflow;

int
main(int argc, char **argv)
{
    std::string name =
        argc > 1 ? driver::parseWorkload(argv[1]) : "twolf";
    double scale =
        argc > 2 ? driver::parseScale("scale", argv[2]) : 0.05;
    size_t maxTasks =
        argc > 3 ? driver::parseCount("maxTasks", argv[3]) : 40;

    Session s = Session::open(name, scale);

    std::vector<TaskEvent> events;
    RunOptions opts;
    opts.events = &events;
    TimingResult res = s.simulate(*driver::runByLabel("postdoms"), opts);

    std::cout << name << " under postdoms: " << res.cycles
              << " cycles, " << res.spawns << " spawns, "
              << res.tasksSquashed << " squashes\n\n";

    // Pair spawns with their retirement by trace range.
    struct Life
    {
        std::uint64_t spawned = 0, retired = 0;
        std::uint32_t begin = 0, end = 0;
        Addr trigger = invalidAddr;
        int squashes = 0;
    };
    std::map<std::pair<std::uint32_t, std::uint64_t>, Life> lives;
    std::map<std::uint32_t, std::uint64_t> openAt;  // begin -> spawn
    std::vector<Life> done;
    for (const TaskEvent &e : events) {
        switch (e.kind) {
          case TaskEvent::Kind::Spawn:
            openAt[e.begin] = e.cycle;
            lives[{e.begin, e.cycle}] =
                Life{e.cycle, 0, e.begin, e.end, e.triggerPc, 0};
            break;
          case TaskEvent::Kind::Squash: {
            auto it = openAt.find(e.begin);
            if (it != openAt.end())
                ++lives[{e.begin, it->second}].squashes;
            break;
          }
          case TaskEvent::Kind::Retire: {
            auto it = openAt.find(e.begin);
            if (it != openAt.end()) {
                Life &l = lives[{e.begin, it->second}];
                l.retired = e.cycle;
                l.end = e.end;
                done.push_back(l);
                openAt.erase(it);
            }
            break;
          }
        }
    }

    std::uint64_t horizon = 0;
    size_t n = std::min(maxTasks, done.size());
    for (size_t i = 0; i < n; ++i)
        horizon = std::max(horizon, done[i].retired);
    if (horizon == 0) {
        std::cout << "(no spawned tasks retired)\n";
        return 0;
    }

    constexpr int cols = 64;
    std::cout << "task lifetimes (" << n << " earliest tasks, '#' = "
              << "alive, 'x' = squash in range, horizon " << horizon
              << " cycles)\n";
    for (size_t i = 0; i < n; ++i) {
        const Life &l = done[i];
        int from = int(l.spawned * cols / horizon);
        int to = std::max(from + 1, int(l.retired * cols / horizon));
        std::string bar(cols, '.');
        for (int c = from; c < to && c < cols; ++c)
            bar[c] = l.squashes ? 'x' : '#';
        char trig[24];
        snprintf(trig, sizeof(trig), "%#llx",
                 (unsigned long long)l.trigger);
        printf("%-10s [%s] %5u instrs\n", trig, bar.c_str(),
               l.end - l.begin);
    }
    return 0;
}
