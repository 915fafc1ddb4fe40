/**
 * @file
 * Bounds-checked big-endian (network byte order) serialization used by
 * every protocol header in src/inet, plus the QPIP RDMA message
 * framing (a RETH-style extended transport header carried inside the
 * TCP message payload on RDMA-enabled QPs). Readers fail soft:
 * out-of-bounds reads return zero and latch !ok(), so corrupted
 * packets can be parsed defensively and then discarded.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace qpip::net {

/**
 * Appends big-endian fields to a byte vector.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }

    void
    u16(std::uint16_t v)
    {
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v));
    }

    void
    u32(std::uint32_t v)
    {
        out_.push_back(static_cast<std::uint8_t>(v >> 24));
        out_.push_back(static_cast<std::uint8_t>(v >> 16));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v >> 32));
        u32(static_cast<std::uint32_t>(v));
    }

    void
    bytes(std::span<const std::uint8_t> data)
    {
        out_.insert(out_.end(), data.begin(), data.end());
    }

    void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

    /** Overwrite a previously written 16-bit field at @p offset. */
    void
    patchU16(std::size_t offset, std::uint16_t v)
    {
        out_.at(offset) = static_cast<std::uint8_t>(v >> 8);
        out_.at(offset + 1) = static_cast<std::uint8_t>(v);
    }

    std::size_t size() const { return out_.size(); }

  private:
    std::vector<std::uint8_t> &out_;
};

/**
 * Cursor-based reader over a byte span with soft failure.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> data)
        : data_(data)
    {}

    std::uint8_t
    u8()
    {
        if (!ensure(1))
            return 0;
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        if (!ensure(2))
            return 0;
        const auto v = static_cast<std::uint16_t>(
            (data_[pos_] << 8) | data_[pos_ + 1]);
        pos_ += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!ensure(4))
            return 0;
        const std::uint32_t v =
            (static_cast<std::uint32_t>(data_[pos_]) << 24) |
            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
            static_cast<std::uint32_t>(data_[pos_ + 3]);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t hi = u32();
        const std::uint64_t lo = u32();
        return (hi << 32) | lo;
    }

    /** Copy @p n bytes out; zero-fills on under-run. */
    void bytes(std::uint8_t *dst, std::size_t n);

    /** Skip @p n bytes. */
    void
    skip(std::size_t n)
    {
        if (ensure(n))
            pos_ += n;
    }

    /** Remaining unread bytes. */
    std::size_t remaining() const
    {
        return ok_ ? data_.size() - pos_ : 0;
    }

    /** View of the remaining bytes (empty if failed). */
    std::span<const std::uint8_t>
    rest() const
    {
        if (!ok_)
            return {};
        return data_.subspan(pos_);
    }

    std::size_t position() const { return pos_; }
    bool ok() const { return ok_; }

  private:
    bool
    ensure(std::size_t n)
    {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ---------------------------------------------------------------------
// QPIP RDMA message framing
// ---------------------------------------------------------------------

/**
 * Per-message transport opcode on RDMA-enabled QPs. The opcode is the
 * first byte of every TCP message; legacy (non-RDMA) QPs carry raw
 * payloads and never see these.
 */
enum class RdmaOpcode : std::uint8_t {
    Send = 0,      ///< two-sided send, consumes a receive WR
    Write = 1,     ///< one-sided write; RETH + payload
    ReadReq = 2,   ///< one-sided read request; RETH + length
    WriteAck = 3,  ///< responder's completion of a Write
    ReadResp = 4,  ///< responder's reply to a ReadReq (+ payload)
};

/** Status carried in WriteAck / ReadResp. */
enum class RdmaWireStatus : std::uint8_t {
    Ok = 0,
    RemoteAccess = 1, ///< bad rkey, out of bounds, or no permission
};

/**
 * The decoded framing header. Field validity depends on the opcode:
 * Write/ReadReq carry the RETH (raddr, rkey); ReadReq also carries
 * length; responses carry status. opId matches a response to its
 * request (per-QP, monotonically increasing).
 */
struct RdmaHeader
{
    RdmaOpcode opcode = RdmaOpcode::Send;
    std::uint64_t opId = 0;
    std::uint64_t raddr = 0; ///< byte offset into the remote MR
    std::uint32_t rkey = 0;
    std::uint32_t length = 0; ///< ReadReq: bytes requested
    RdmaWireStatus status = RdmaWireStatus::Ok;
};

/** Serialized header size for @p op (payload follows immediately). */
std::size_t rdmaHeaderBytes(RdmaOpcode op);

/** Frame @p payload under @p hdr into one message buffer. */
std::vector<std::uint8_t>
serializeRdmaMessage(const RdmaHeader &hdr,
                     std::span<const std::uint8_t> payload);

/**
 * Parse a framed message. @return false on truncation or an unknown
 * opcode; on success @p out is filled and @p payload views the bytes
 * after the header (inside @p msg).
 */
bool parseRdmaMessage(std::span<const std::uint8_t> msg, RdmaHeader &out,
                      std::span<const std::uint8_t> &payload);

// ---------------------------------------------------------------------
// QPIP reliable-datagram (RUD) message framing
// ---------------------------------------------------------------------

/**
 * Per-datagram opcode of the reliable-over-UD shim. Every UDP
 * datagram a ReliableDatagram QP emits starts with one of these;
 * plain UnreliableUdp QPs carry raw payloads and never see them.
 */
enum class RudOpcode : std::uint8_t {
    Data = 0, ///< sequenced payload; carries a piggybacked ack
    Ack = 1,  ///< standalone cumulative ack (no payload)
};

/**
 * The decoded RUD framing header. seq is valid for Data only; ack is
 * the cumulative acknowledgment (highest in-order sequence received
 * from the datagram's destination) and is carried by both opcodes —
 * Data piggybacks it, Ack exists for nothing else. Sequence numbers
 * are per (QP, peer) and start at 1; ack 0 means "nothing yet".
 */
struct RudHeader
{
    RudOpcode opcode = RudOpcode::Data;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
};

/** Serialized header size for @p op (payload follows immediately). */
std::size_t rudHeaderBytes(RudOpcode op);

/** Frame @p payload under @p hdr into one datagram buffer. */
std::vector<std::uint8_t>
serializeRudMessage(const RudHeader &hdr,
                    std::span<const std::uint8_t> payload);

/**
 * Parse a framed RUD datagram. @return false on truncation or an
 * unknown opcode; on success @p out is filled and @p payload views
 * the bytes after the header (inside @p msg).
 */
bool parseRudMessage(std::span<const std::uint8_t> msg, RudHeader &out,
                     std::span<const std::uint8_t> &payload);

} // namespace qpip::net
