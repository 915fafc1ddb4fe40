#include "net/serialize.hh"

namespace qpip::net {

void
ByteReader::bytes(std::uint8_t *dst, std::size_t n)
{
    if (!ensure(n)) {
        std::memset(dst, 0, n);
        return;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
}

std::size_t
rdmaHeaderBytes(RdmaOpcode op)
{
    switch (op) {
      case RdmaOpcode::Send:
        return 1;
      case RdmaOpcode::Write: // op + opId + raddr + rkey
        return 1 + 8 + 8 + 4;
      case RdmaOpcode::ReadReq: // op + opId + raddr + rkey + length
        return 1 + 8 + 8 + 4 + 4;
      case RdmaOpcode::WriteAck: // op + opId + status
      case RdmaOpcode::ReadResp:
        return 1 + 8 + 1;
    }
    return 0;
}

std::vector<std::uint8_t>
serializeRdmaMessage(const RdmaHeader &hdr,
                     std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(rdmaHeaderBytes(hdr.opcode) + payload.size());
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(hdr.opcode));
    switch (hdr.opcode) {
      case RdmaOpcode::Send:
        break;
      case RdmaOpcode::Write:
        w.u64(hdr.opId);
        w.u64(hdr.raddr);
        w.u32(hdr.rkey);
        break;
      case RdmaOpcode::ReadReq:
        w.u64(hdr.opId);
        w.u64(hdr.raddr);
        w.u32(hdr.rkey);
        w.u32(hdr.length);
        break;
      case RdmaOpcode::WriteAck:
      case RdmaOpcode::ReadResp:
        w.u64(hdr.opId);
        w.u8(static_cast<std::uint8_t>(hdr.status));
        break;
    }
    w.bytes(payload);
    return out;
}

bool
parseRdmaMessage(std::span<const std::uint8_t> msg, RdmaHeader &out,
                 std::span<const std::uint8_t> &payload)
{
    ByteReader r(msg);
    const std::uint8_t op = r.u8();
    if (!r.ok() ||
        op > static_cast<std::uint8_t>(RdmaOpcode::ReadResp)) {
        return false;
    }
    out = RdmaHeader{};
    out.opcode = static_cast<RdmaOpcode>(op);
    switch (out.opcode) {
      case RdmaOpcode::Send:
        break;
      case RdmaOpcode::Write:
        out.opId = r.u64();
        out.raddr = r.u64();
        out.rkey = r.u32();
        break;
      case RdmaOpcode::ReadReq:
        out.opId = r.u64();
        out.raddr = r.u64();
        out.rkey = r.u32();
        out.length = r.u32();
        break;
      case RdmaOpcode::WriteAck:
      case RdmaOpcode::ReadResp: {
        out.opId = r.u64();
        const std::uint8_t st = r.u8();
        if (st > static_cast<std::uint8_t>(RdmaWireStatus::RemoteAccess))
            return false;
        out.status = static_cast<RdmaWireStatus>(st);
        break;
      }
    }
    if (!r.ok())
        return false;
    payload = r.rest();
    return true;
}

std::size_t
rudHeaderBytes(RudOpcode op)
{
    switch (op) {
      case RudOpcode::Data: // op + seq + ack
        return 1 + 4 + 4;
      case RudOpcode::Ack: // op + ack
        return 1 + 4;
    }
    return 0;
}

std::vector<std::uint8_t>
serializeRudMessage(const RudHeader &hdr,
                    std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(rudHeaderBytes(hdr.opcode) + payload.size());
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(hdr.opcode));
    switch (hdr.opcode) {
      case RudOpcode::Data:
        w.u32(hdr.seq);
        w.u32(hdr.ack);
        break;
      case RudOpcode::Ack:
        w.u32(hdr.ack);
        break;
    }
    w.bytes(payload);
    return out;
}

bool
parseRudMessage(std::span<const std::uint8_t> msg, RudHeader &out,
                std::span<const std::uint8_t> &payload)
{
    ByteReader r(msg);
    const std::uint8_t op = r.u8();
    if (!r.ok() || op > static_cast<std::uint8_t>(RudOpcode::Ack))
        return false;
    out = RudHeader{};
    out.opcode = static_cast<RudOpcode>(op);
    switch (out.opcode) {
      case RudOpcode::Data:
        out.seq = r.u32();
        out.ack = r.u32();
        break;
      case RudOpcode::Ack:
        out.ack = r.u32();
        break;
    }
    if (!r.ok())
        return false;
    payload = r.rest();
    return true;
}

} // namespace qpip::net
