#include "trace/trace_format.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "sim/logging.hh"

namespace sw {

namespace {

/** FNV-1a 64-bit accumulator. */
class Digest
{
  public:
    void
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (8 * i)) & 0xFF;
            state *= 0x100000001b3ULL;
        }
    }

    void f64(double value)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    std::uint64_t take() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
configDigest(const GpuConfig &cfg)
{
    Digest d;
    // Field order is part of the format: changing it (or the field set)
    // requires a kTraceVersion bump.
    d.u64(cfg.numSms);
    d.u64(cfg.maxWarpsPerSm);
    d.u64(cfg.warpSize);
    d.f64(cfg.clockGhz);
    d.u64(cfg.l1TlbEntries);
    d.u64(cfg.l1TlbLatency);
    d.u64(cfg.l1TlbMshrs);
    d.u64(cfg.l1TlbMergesPerMshr);
    d.u64(cfg.l2TlbEntries);
    d.u64(cfg.l2TlbWays);
    d.u64(cfg.l2TlbLatency);
    d.u64(cfg.l2TlbMshrs);
    d.u64(cfg.l2TlbMergesPerMshr);
    d.u64(cfg.l1dBytes);
    d.u64(cfg.l1dLatency);
    d.u64(cfg.l1dWays);
    d.u64(cfg.l2dBytes);
    d.u64(cfg.l2dLatency);
    d.u64(cfg.l2dWays);
    d.u64(cfg.lineBytes);
    d.u64(cfg.sectorBytes);
    d.u64(cfg.l1dMshrs);
    d.u64(cfg.l2dMshrs);
    d.u64(cfg.dramChannels);
    d.u64(cfg.dramLatency);
    d.u64(cfg.dramCyclesPerSector);
    d.u64(cfg.pageBytes);
    d.u64(std::uint64_t(cfg.pageTableKind));
    d.u64(cfg.pwcEntries);
    d.u64(cfg.pwcLatency);
    d.u64(cfg.numPtws);
    d.u64(cfg.pwbEntries);
    d.u64(cfg.pwbPorts);
    d.u64(cfg.nhaCoalescing ? 1 : 0);
    d.u64(std::uint64_t(cfg.mode));
    d.u64(cfg.pwWarpThreads);
    d.u64(cfg.softPwbEntries);
    d.u64(cfg.inTlbMshrMax);
    d.u64(std::uint64_t(cfg.distributorPolicy));
    // The slot of the removed commLatency knob, whose default 0 meant "the
    // L2 TLB latency": hashing that 0 keeps every recorded trace's and
    // checkpoint's digest valid.
    d.u64(0);
    d.u64(cfg.fixedPtAccessLatency);
    d.u64(cfg.rngSeed);
    // Tenant layout guard: appended only when any multi-tenancy knob moves
    // off its default, so digests of pre-existing single-tenant recordings
    // (including the committed example traces) are unchanged while every
    // multi-tenant trace/checkpoint is pinned to its exact tenant layout.
    if (cfg.numTenants != 1 || cfg.migPartitioning ||
        cfg.l2SubEntries != 1 || cfg.l2SubEntrySharing ||
        cfg.pwArbitration != PwArbitration::Demand) {
        d.u64(cfg.numTenants);
        d.u64(cfg.migPartitioning ? 1 : 0);
        d.u64(cfg.l2SubEntries);
        d.u64(cfg.l2SubEntrySharing ? 1 : 0);
        d.u64(std::uint64_t(cfg.pwArbitration));
    }
    // cfg.auditIntervalCycles deliberately excluded: audit sweeps ride the
    // non-perturbing periodic-check hook and cannot change the timeline.
    std::uint64_t digest = d.take();
    // 0 is reserved for "unknown origin" (converted traces).
    return digest == kUnknownConfigDigest ? 1 : digest;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(std::uint8_t(value) | 0x80);
        value >>= 7;
    }
    out.push_back(std::uint8_t(value));
}

void
putSvarint(std::vector<std::uint8_t> &out, std::int64_t value)
{
    // Zigzag: small magnitudes of either sign stay short.
    putVarint(out, (std::uint64_t(value) << 1) ^
                       std::uint64_t(value >> 63));
}

void
TraceReader::truncated(const char *what) const
{
    fatal("truncated trace '%s': unexpected end of file reading %s at "
          "offset %zu", context_.c_str(), what, off);
}

std::uint8_t
TraceReader::u8()
{
    if (off + 1 > size_)
        truncated("a byte");
    return data_[off++];
}

std::uint32_t
TraceReader::u32le()
{
    if (off + 4 > size_)
        truncated("a 32-bit word");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= std::uint32_t(data_[off + std::size_t(i)]) << (8 * i);
    off += 4;
    return value;
}

std::uint64_t
TraceReader::u64le()
{
    if (off + 8 > size_)
        truncated("a 64-bit word");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= std::uint64_t(data_[off + std::size_t(i)]) << (8 * i);
    off += 8;
    return value;
}

std::uint64_t
TraceReader::varint()
{
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (off >= size_)
            truncated("a varint");
        std::uint8_t byte = data_[off++];
        value |= std::uint64_t(byte & 0x7F) << shift;
        if (!(byte & 0x80))
            return value;
    }
    fatal("corrupt trace '%s': varint longer than 10 bytes at offset %zu",
          context_.c_str(), off);
}

std::int64_t
TraceReader::svarint()
{
    std::uint64_t raw = varint();
    return std::int64_t(raw >> 1) ^ -std::int64_t(raw & 1);
}

std::string
TraceReader::bytes(std::size_t n)
{
    if (n > size_ - off || off > size_)
        truncated("a byte string");
    std::string out(reinterpret_cast<const char *>(data_ + off), n);
    off += n;
    return out;
}

std::vector<std::uint8_t>
encodeTrace(const TraceFile &trace)
{
    std::vector<std::uint8_t> out;
    // Rough lower bound: fixed header plus a few bytes per record.
    out.reserve(64 + trace.totalInstrs() * 4);
    // Byte-at-a-time rather than a range insert: GCC 12 raises spurious
    // -Wstringop-overflow warnings on memmove-style inserts here.
    for (char c : kTraceMagic)
        out.push_back(std::uint8_t(c));
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(kTraceVersion >> (8 * i)));
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(trace.header.configDigest >> (8 * i)));

    putVarint(out, trace.header.name.size());
    out.insert(out.end(), trace.header.name.begin(),
               trace.header.name.end());
    putVarint(out, trace.header.footprintBytes);
    out.push_back(trace.header.irregular ? 1 : 0);
    putVarint(out, trace.header.limits.warpInstrQuota);
    putVarint(out, trace.header.limits.warmupInstrs);
    putVarint(out, trace.header.limits.maxCycles);
    putVarint(out, trace.header.limits.maxActiveWarps);

    putVarint(out, trace.streams.size());
    for (const TraceStream &stream : trace.streams) {
        putVarint(out, stream.sm);
        putVarint(out, stream.warp);
        putVarint(out, stream.asid);
        putVarint(out, stream.instrs.size());
        VirtAddr prev_lane0 = 0;
        for (const WarpInstr &instr : stream.instrs) {
            putVarint(out, instr.computeGap);
            // 0 lanes is legal: it is the idle instruction a drained
            // replay emits, so re-recording a replay stays writable.
            SW_ASSERT(instr.activeLanes <= 32,
                      "recording an instruction with %u active lanes",
                      instr.activeLanes);
            out.push_back(std::uint8_t(instr.activeLanes & 0x3F) |
                          (instr.write ? 0x40 : 0));
            if (instr.activeLanes > 0) {
                putSvarint(out, std::int64_t(instr.addrs[0] - prev_lane0));
                for (std::uint32_t lane = 1; lane < instr.activeLanes;
                     ++lane)
                    putSvarint(out, std::int64_t(instr.addrs[lane] -
                                                 instr.addrs[lane - 1]));
                prev_lane0 = instr.addrs[0];
            }
        }
    }

    SW_ASSERT(trace.fetchOrder.empty() ||
              trace.fetchOrder.size() == trace.totalInstrs(),
              "fetch order covers %zu of %llu recorded instructions",
              trace.fetchOrder.size(),
              (unsigned long long)trace.totalInstrs());
    putVarint(out, trace.fetchOrder.size());
    for (std::uint32_t stream_index : trace.fetchOrder)
        putVarint(out, stream_index);
    return out;
}

TraceFile
decodeTrace(const std::uint8_t *data, std::size_t size,
            const std::string &context)
{
    TraceReader reader(data, size, context);
    if (size < sizeof(kTraceMagic))
        fatal("truncated trace '%s': %zu bytes is shorter than the magic",
              context.c_str(), size);
    std::string magic = reader.bytes(sizeof(kTraceMagic));
    if (std::memcmp(magic.data(), kTraceMagic, sizeof(kTraceMagic)) != 0)
        fatal("'%s' is not a SoftWalker trace (bad magic)",
              context.c_str());
    std::uint32_t version = reader.u32le();
    if (version == 0 || version > kTraceVersion)
        fatal("trace '%s' has unsupported format version %u (this build "
              "reads up to version %u)", context.c_str(), version,
              kTraceVersion);

    TraceFile trace;
    trace.header.configDigest = reader.u64le();
    trace.header.name = reader.bytes(reader.varint());
    trace.header.footprintBytes = reader.varint();
    trace.header.irregular = reader.u8() != 0;
    trace.header.limits.warpInstrQuota = reader.varint();
    trace.header.limits.warmupInstrs = reader.varint();
    trace.header.limits.maxCycles = reader.varint();
    trace.header.limits.maxActiveWarps = reader.varint();

    std::uint64_t stream_count = reader.varint();
    trace.streams.reserve(stream_count);
    for (std::uint64_t s = 0; s < stream_count; ++s) {
        TraceStream stream;
        stream.sm = SmId(reader.varint());
        stream.warp = WarpId(reader.varint());
        // Pre-multi-tenant traces carry no ASID tag; they decode as the
        // single-tenant address space.
        stream.asid = version >= 3 ? Asid(reader.varint()) : 0;
        std::uint64_t count = reader.varint();
        // A corrupt count must not drive a huge allocation: each record
        // is at least 3 bytes on disk.
        if (count > reader.remaining())
            fatal("corrupt trace '%s': stream (%u, %u) claims %llu "
                  "records but only %zu bytes remain", context.c_str(),
                  stream.sm, stream.warp, (unsigned long long)count,
                  reader.remaining());
        stream.instrs.reserve(count);
        VirtAddr prev_lane0 = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            WarpInstr instr;
            instr.computeGap = std::uint32_t(reader.varint());
            std::uint8_t packed = reader.u8();
            instr.activeLanes = packed & 0x3F;
            instr.write = (packed & 0x40) != 0;
            if (instr.activeLanes > 32)
                fatal("corrupt trace '%s': record %llu of stream "
                      "(%u, %u) has %u active lanes (offset %zu)",
                      context.c_str(), (unsigned long long)i, stream.sm,
                      stream.warp, instr.activeLanes,
                      reader.offset());
            if (instr.activeLanes > 0) {
                instr.addrs[0] =
                    prev_lane0 + VirtAddr(reader.svarint());
                for (std::uint32_t lane = 1; lane < instr.activeLanes;
                     ++lane)
                    instr.addrs[lane] = instr.addrs[lane - 1] +
                                        VirtAddr(reader.svarint());
                prev_lane0 = instr.addrs[0];
            }
            stream.instrs.push_back(instr);
        }
        trace.streams.push_back(std::move(stream));
    }

    if (version >= 2) {
        std::uint64_t order_count = reader.varint();
        // Each entry is at least one byte on disk.
        if (order_count > reader.remaining())
            fatal("corrupt trace '%s': fetch order claims %llu entries "
                  "but only %zu bytes remain", context.c_str(),
                  (unsigned long long)order_count, reader.remaining());
        if (order_count != 0 && order_count != trace.totalInstrs())
            fatal("corrupt trace '%s': fetch order has %llu entries for "
                  "%llu recorded instructions", context.c_str(),
                  (unsigned long long)order_count,
                  (unsigned long long)trace.totalInstrs());
        std::vector<std::uint64_t> occupancy(trace.streams.size(), 0);
        trace.fetchOrder.reserve(order_count);
        for (std::uint64_t i = 0; i < order_count; ++i) {
            std::uint64_t stream_index = reader.varint();
            if (stream_index >= trace.streams.size())
                fatal("corrupt trace '%s': fetch-order entry %llu names "
                      "stream %llu of %zu (offset %zu)", context.c_str(),
                      (unsigned long long)i,
                      (unsigned long long)stream_index,
                      trace.streams.size(), reader.offset());
            std::size_t idx = std::size_t(stream_index);
            if (++occupancy[idx] > trace.streams[idx].instrs.size())
                fatal("corrupt trace '%s': fetch order visits stream "
                      "(%u, %u) more often than its %zu records "
                      "(offset %zu)", context.c_str(),
                      trace.streams[idx].sm, trace.streams[idx].warp,
                      trace.streams[idx].instrs.size(), reader.offset());
            trace.fetchOrder.push_back(std::uint32_t(stream_index));
        }
    }

    if (reader.remaining() != 0)
        fatal("corrupt trace '%s': %zu trailing bytes after the last "
              "stream", context.c_str(), reader.remaining());
    return trace;
}

void
writeTraceFile(const std::string &path, const TraceFile &trace)
{
    std::vector<std::uint8_t> bytes = encodeTrace(trace);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open trace '%s' for writing", path.c_str());
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    out.flush();
    if (!out)
        fatal("short write to trace '%s'", path.c_str());
}

TraceFile
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("cannot open trace '%s' for reading", path.c_str());
    std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (!in)
        fatal("cannot read trace '%s'", path.c_str());
    return decodeTrace(bytes.data(), bytes.size(), path);
}

} // namespace sw
