#include "obs/sampler.hh"

#include "obs/text_appender.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

void
TimeSeriesSampler::gauge(std::string name, std::function<double()> fn)
{
    SW_ASSERT(!installedOn, "register gauges before install()");
    SW_ASSERT(fn, "gauge '%s' registered without a callable", name.c_str());
    names_.push_back(std::move(name));
    gauges.push_back(std::move(fn));
}

void
TimeSeriesSampler::install(EventQueue &eq, Cycle interval)
{
    SW_ASSERT(interval > 0, "sampler interval must be non-zero");
    uninstall();
    installedOn = &eq;
    sweepId = eq.addPeriodicCheck(interval,
                                  [this](Cycle now) { sampleNow(now); });
}

void
TimeSeriesSampler::uninstall()
{
    if (installedOn) {
        installedOn->removePeriodicCheck(sweepId);
        installedOn = nullptr;
        sweepId = 0;
    }
}

void
TimeSeriesSampler::sampleNow(Cycle now)
{
    SW_PROF_SCOPE(prof::Zone::ObsSample);
    if (onSample_)
        onSample_(now);
    Row row;
    row.cycle = now;
    row.values.reserve(gauges.size());
    for (const auto &fn : gauges)
        row.values.push_back(fn());
    rows_.push_back(std::move(row));
}

void
TimeSeriesSampler::finalize(Cycle now)
{
    if (!rows_.empty() && rows_.back().cycle == now)
        return;
    sampleNow(now);
}

std::string
TimeSeriesSampler::csvHeader() const
{
    std::string out = "cycle";
    for (const std::string &name : names_) {
        out += ',';
        out += name;
    }
    return out;
}

void
TimeSeriesSampler::writeCsv(std::ostream &out) const
{
    TextAppender text(out);
    text << csvHeader() << "\n";
    for (const Row &row : rows_) {
        text << row.cycle;
        for (double v : row.values) {
            text << ",";
            text.general(v, 6);
        }
        text << "\n";
    }
}

} // namespace sw
