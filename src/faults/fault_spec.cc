#include "faults/fault_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace doppio::faults {

const char *
nodeEventKindName(NodeEvent::Kind kind)
{
    switch (kind) {
      case NodeEvent::Kind::Kill:
        return "kill";
      case NodeEvent::Kind::Rejoin:
        return "rejoin";
      case NodeEvent::Kind::Degrade:
        return "degrade";
      case NodeEvent::Kind::DegradeMem:
        return "degrade-mem";
      case NodeEvent::Kind::SlowNode:
        return "slow-node";
      case NodeEvent::Kind::Partition:
        return "partition";
      case NodeEvent::Kind::Heal:
        return "heal";
    }
    return "?";
}

FaultSchedule::FaultSchedule(std::vector<NodeEvent> events)
    : events_(std::move(events))
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const NodeEvent &a, const NodeEvent &b) {
                         return a.atSeconds < b.atSeconds;
                     });
}

void
FaultSchedule::add(NodeEvent event)
{
    auto it = std::upper_bound(
        events_.begin(), events_.end(), event,
        [](const NodeEvent &a, const NodeEvent &b) {
            return a.atSeconds < b.atSeconds;
        });
    events_.insert(it, event);
}

bool
FaultSpec::any() const
{
    return taskFailureRate > 0.0 || diskReadErrorRate > 0.0 ||
           hdfsCorruptRate > 0.0 || shuffleFetchFailureRate > 0.0 ||
           !schedule.empty();
}

namespace {

/**
 * "FaultSpec file:12: " when the event carries its declaration site,
 * "FaultSpec: " for programmatically built events.
 */
std::string
eventWhere(const NodeEvent &event)
{
    if (event.declLine <= 0)
        return "FaultSpec:";
    return "FaultSpec " + event.declSource + ":" +
           std::to_string(event.declLine) + ":";
}

} // namespace

void
FaultSpec::validate() const
{
    auto check_rate = [](double rate, const char *name) {
        if (rate < 0.0 || rate >= 1.0)
            fatal("FaultSpec: %s must be in [0, 1), got %g", name, rate);
    };
    check_rate(taskFailureRate, "task-fail-rate");
    check_rate(diskReadErrorRate, "disk-error-rate");
    check_rate(hdfsCorruptRate, "corrupt-rate");
    check_rate(shuffleFetchFailureRate, "fetch-fail-rate");
    for (const NodeEvent &event : schedule.events()) {
        const std::string where = eventWhere(event);
        if (event.kind != NodeEvent::Kind::Partition &&
            event.kind != NodeEvent::Kind::Heal && event.node < 0)
            fatal("%s negative node id %d in %s event", where.c_str(),
                  event.node, nodeEventKindName(event.kind));
        if (event.atSeconds < 0.0)
            fatal("%s negative time %g in %s event", where.c_str(),
                  event.atSeconds, nodeEventKindName(event.kind));
        if (event.kind == NodeEvent::Kind::Degrade && event.factor < 1.0)
            fatal("%s degrade factor must be >= 1, got %g",
                  where.c_str(), event.factor);
        if (event.kind == NodeEvent::Kind::SlowNode &&
            event.factor < 1.0)
            fatal("%s slow-node factor must be >= 1, got %g",
                  where.c_str(), event.factor);
        if (event.kind == NodeEvent::Kind::DegradeMem &&
            (event.factor <= 0.0 || event.factor > 1.0))
            fatal("%s degrade-mem fraction must be in (0, 1], got %g",
                  where.c_str(), event.factor);
        if (event.kind == NodeEvent::Kind::Partition) {
            if (event.groupA.empty() || event.groupB.empty())
                fatal("%s partition needs nodes on both sides",
                      where.c_str());
            for (int a : event.groupA) {
                if (a < 0)
                    fatal("%s negative node id %d in partition",
                          where.c_str(), a);
                if (std::find(event.groupB.begin(), event.groupB.end(),
                              a) != event.groupB.end())
                    fatal("%s node %d on both sides of the partition",
                          where.c_str(), a);
            }
            for (int b : event.groupB) {
                if (b < 0)
                    fatal("%s negative node id %d in partition",
                          where.c_str(), b);
            }
        }
    }
    // Cross-event sanity in time order (the schedule is kept sorted):
    //  - two kills of one node at one time are a spec typo;
    //  - a rejoin of a node that is not down at that point would be a
    //    silent no-op, so it is rejected (usually a wrong node id);
    //  - a heal with no partition in effect likewise.
    const auto &events = schedule.events();
    std::vector<int> down;
    bool partitioned = false;
    for (const NodeEvent &event : events) {
        const std::string where = eventWhere(event);
        switch (event.kind) {
          case NodeEvent::Kind::Kill: {
            for (const NodeEvent &other : events) {
                if (&other != &event &&
                    other.kind == NodeEvent::Kind::Kill &&
                    other.node == event.node &&
                    other.atSeconds == event.atSeconds) {
                    fatal("%s duplicate kill of node %d at t=%g",
                          where.c_str(), event.node, event.atSeconds);
                }
            }
            if (std::find(down.begin(), down.end(), event.node) ==
                down.end())
                down.push_back(event.node);
            break;
          }
          case NodeEvent::Kind::Rejoin: {
            auto it = std::find(down.begin(), down.end(), event.node);
            if (it == down.end())
                fatal("%s rejoin of node %d at t=%g, but it was never "
                      "killed before that",
                      where.c_str(), event.node, event.atSeconds);
            down.erase(it);
            break;
          }
          case NodeEvent::Kind::Partition:
            partitioned = true;
            break;
          case NodeEvent::Kind::Heal:
            if (!partitioned)
                fatal("%s heal at t=%g, but no partition is in effect",
                      where.c_str(), event.atSeconds);
            partitioned = false;
            break;
          default:
            break;
        }
    }
}

namespace {

double
parseDouble(const std::string &token, const std::string &source,
            int line)
{
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0')
        fatal("FaultSpec %s:%d: expected a number, got '%s'",
              source.c_str(), line, token.c_str());
    // strtod accepts "nan" and "inf", which every range check below
    // would let through.
    if (!std::isfinite(value))
        fatal("FaultSpec %s:%d: expected a finite number, got '%s'",
              source.c_str(), line, token.c_str());
    return value;
}

/** Split "id@t" into a node event skeleton. */
NodeEvent
parseNodeAt(const std::string &token, NodeEvent::Kind kind,
            const std::string &source, int line)
{
    const std::size_t at = token.find('@');
    if (at == std::string::npos)
        fatal("FaultSpec %s:%d: expected <node>@<seconds>, got '%s'",
              source.c_str(), line, token.c_str());
    NodeEvent event;
    event.kind = kind;
    event.node = static_cast<int>(
        parseDouble(token.substr(0, at), source, line));
    event.atSeconds = parseDouble(token.substr(at + 1), source, line);
    event.declSource = source;
    event.declLine = line;
    return event;
}

/** Split a comma-separated node list ("0,1,3"). */
std::vector<int>
parseNodeList(const std::string &token, const std::string &source,
              int line)
{
    std::vector<int> nodes;
    std::string item;
    std::istringstream parts(token);
    while (std::getline(parts, item, ',')) {
        if (item.empty())
            fatal("FaultSpec %s:%d: empty node id in list '%s'",
                  source.c_str(), line, token.c_str());
        nodes.push_back(
            static_cast<int>(parseDouble(item, source, line)));
    }
    if (nodes.empty())
        fatal("FaultSpec %s:%d: empty node list", source.c_str(),
              line);
    return nodes;
}

/** Parse "A|B@t" into a Partition event. */
NodeEvent
parsePartition(const std::string &token, const std::string &source,
               int line)
{
    const std::size_t at = token.find('@');
    const std::size_t bar = token.find('|');
    if (at == std::string::npos || bar == std::string::npos ||
        bar > at)
        fatal("FaultSpec %s:%d: expected <nodes>|<nodes>@<seconds>, "
              "got '%s'",
              source.c_str(), line, token.c_str());
    NodeEvent event;
    event.kind = NodeEvent::Kind::Partition;
    event.groupA = parseNodeList(token.substr(0, bar), source, line);
    event.groupB =
        parseNodeList(token.substr(bar + 1, at - bar - 1), source, line);
    event.atSeconds = parseDouble(token.substr(at + 1), source, line);
    event.declSource = source;
    event.declLine = line;
    return event;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text, const std::string &source)
{
    FaultSpec spec;
    // Statements are separated by newlines or semicolons.
    std::string normalized = text;
    std::replace(normalized.begin(), normalized.end(), ';', '\n');
    std::istringstream lines(normalized);
    std::string raw_line;
    int line_no = 0;
    while (std::getline(lines, raw_line)) {
        ++line_no;
        const std::size_t hash = raw_line.find('#');
        if (hash != std::string::npos)
            raw_line.erase(hash);
        std::istringstream words(raw_line);
        std::string key;
        if (!(words >> key))
            continue;
        if (key.rfind("heal@", 0) == 0) {
            // heal@T carries its time in the directive itself.
            NodeEvent event;
            event.kind = NodeEvent::Kind::Heal;
            event.atSeconds =
                parseDouble(key.substr(5), source, line_no);
            event.declSource = source;
            event.declLine = line_no;
            spec.schedule.add(event);
            std::string extra;
            if (words >> extra)
                fatal("FaultSpec %s:%d: trailing '%s' after heal",
                      source.c_str(), line_no, extra.c_str());
            continue;
        }
        std::string arg;
        if (!(words >> arg))
            fatal("FaultSpec %s:%d: '%s' needs an argument",
                  source.c_str(), line_no, key.c_str());
        if (key == "task-fail-rate") {
            spec.taskFailureRate = parseDouble(arg, source, line_no);
        } else if (key == "disk-error-rate") {
            spec.diskReadErrorRate = parseDouble(arg, source, line_no);
        } else if (key == "corrupt-rate") {
            spec.hdfsCorruptRate = parseDouble(arg, source, line_no);
        } else if (key == "fetch-fail-rate") {
            spec.shuffleFetchFailureRate =
                parseDouble(arg, source, line_no);
        } else if (key == "kill") {
            spec.schedule.add(parseNodeAt(arg, NodeEvent::Kind::Kill,
                                          source, line_no));
        } else if (key == "rejoin") {
            spec.schedule.add(parseNodeAt(arg, NodeEvent::Kind::Rejoin,
                                          source, line_no));
        } else if (key == "partition") {
            spec.schedule.add(parsePartition(arg, source, line_no));
        } else if (key == "degrade" || key == "degrade-mem" ||
                   key == "slow-node") {
            const NodeEvent::Kind kind =
                key == "degrade"       ? NodeEvent::Kind::Degrade
                : key == "degrade-mem" ? NodeEvent::Kind::DegradeMem
                                       : NodeEvent::Kind::SlowNode;
            NodeEvent event = parseNodeAt(arg, kind, source, line_no);
            std::string factor;
            if (!(words >> factor))
                fatal("FaultSpec %s:%d: %s needs a factor",
                      source.c_str(), line_no, key.c_str());
            event.factor = parseDouble(factor, source, line_no);
            spec.schedule.add(event);
        } else {
            fatal("FaultSpec %s:%d: unknown directive '%s'",
                  source.c_str(), line_no, key.c_str());
        }
        std::string extra;
        if (words >> extra)
            fatal("FaultSpec %s:%d: trailing '%s' after %s",
                  source.c_str(), line_no, extra.c_str(), key.c_str());
    }
    spec.validate();
    return spec;
}

FaultSpec
FaultSpec::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("FaultSpec: cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

} // namespace doppio::faults
