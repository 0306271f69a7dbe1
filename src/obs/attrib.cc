#include "obs/attrib.hh"

#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/stats.hh"

namespace msim::obs
{

namespace detail
{
bool attribEnabled = false;
} // namespace detail

namespace
{

bool
initAttribFromEnv()
{
    const char *env = std::getenv("MEGSIM_ATTRIB");
    detail::attribEnabled = env && *env && std::string_view(env) != "0";
    return detail::attribEnabled;
}

[[maybe_unused]] const bool gAttribInit = initAttribFromEnv();

constexpr const char *kDomainNames[kHostDomainCount] = {
    "other", "load", "geometry", "raster", "shade", "memwalk",
    "analyze",
};

} // namespace

const char *
hostDomainName(HostDomain d)
{
    return kDomainNames[static_cast<std::size_t>(d)];
}

void
setHostAttribEnabled(bool on)
{
    detail::attribEnabled = on;
}

void
AttribScope::open(HostDomain d)
{
    detail::AttribBuckets &b = detail::tlsBuckets();
    if (!b.open)
        return;
    const double now = detail::attribClock();
    const std::size_t prev = static_cast<std::size_t>(b.current);
    b.seconds[prev] += now - b.stamp;
    previous_ = b.current;
    b.current = d;
    b.stamp = now;
    ++b.entries[static_cast<std::size_t>(d)];
    armed_ = true;
}

void
AttribScope::close()
{
    detail::AttribBuckets &b = detail::tlsBuckets();
    const double now = detail::attribClock();
    b.seconds[static_cast<std::size_t>(b.current)] += now - b.stamp;
    b.current = previous_;
    b.stamp = now;
}

void
setAttribClock(AttribClock clock)
{
    detail::attribClock = clock ? clock : &wallSeconds;
}

namespace detail
{

AttribClock attribClock = &wallSeconds;

AttribBuckets &
tlsBuckets()
{
    thread_local AttribBuckets buckets;
    return buckets;
}

} // namespace detail

AttribRoot::AttribRoot()
{
    if (!hostAttribEnabled())
        return;
    detail::AttribBuckets &b = detail::tlsBuckets();
    if (b.open) // nested roots are no-ops; the outer window accounts
        return;
    b.open = true;
    b.current = HostDomain::Other;
    b.stamp = detail::attribClock();
    active_ = true;
}

AttribRoot::~AttribRoot()
{
    if (!active_)
        return;
    detail::AttribBuckets &b = detail::tlsBuckets();
    b.seconds[static_cast<std::size_t>(b.current)] +=
        detail::attribClock() - b.stamp;
    b.open = false;
    flushHostAttrib();
}

void
flushHostAttrib()
{
    detail::AttribBuckets &b = detail::tlsBuckets();
    StatsRegistry &reg = processRegistry();
    for (std::size_t i = 0; i < kHostDomainCount; ++i) {
        if (b.seconds[i] == 0.0 && b.entries[i] == 0)
            continue;
        const std::string stem =
            std::string("obs.host.") + kDomainNames[i];
        reg.scalar(stem + ".seconds",
                   "host wall seconds attributed to this domain") +=
            b.seconds[i];
        reg.scalar(stem + ".entries",
                   "attribution scope entries for this domain") +=
            static_cast<double>(b.entries[i]);
        b.seconds[i] = 0.0;
        b.entries[i] = 0;
    }
}

double
HostAttribSnapshot::totalSeconds() const
{
    double total = 0.0;
    for (double s : seconds)
        total += s;
    return total;
}

double
HostAttribSnapshot::coverage() const
{
    const double total = totalSeconds();
    if (total <= 0.0)
        return 0.0;
    return (total -
            seconds[static_cast<std::size_t>(HostDomain::Other)]) /
           total;
}

HostAttribSnapshot
readHostAttrib()
{
    HostAttribSnapshot snap;
    const StatsRegistry &reg = processRegistry();
    for (std::size_t i = 0; i < kHostDomainCount; ++i) {
        const std::string stem =
            std::string("obs.host.") + kDomainNames[i];
        if (const Stat *s = reg.find(stem + ".seconds"))
            snap.seconds[i] = s->value();
        if (const Stat *s = reg.find(stem + ".entries"))
            snap.entries[i] =
                static_cast<std::uint64_t>(s->value());
    }
    return snap;
}

} // namespace msim::obs
