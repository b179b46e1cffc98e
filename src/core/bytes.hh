/**
 * @file
 * Byte-buffer type plus little-endian serialization helpers used by
 * the crypto primitives and the TRUST wire protocol.
 */

#ifndef TRUST_CORE_BYTES_HH
#define TRUST_CORE_BYTES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace trust::core {

/** Raw byte sequence. */
using Bytes = std::vector<std::uint8_t>;

/** Build a byte vector from a std::string. */
Bytes toBytes(const std::string &s);

/** Interpret a byte vector as a std::string. */
std::string toString(const Bytes &b);

/** Constant-time byte-vector comparison (for MAC verification). */
bool constantTimeEqual(const Bytes &a, const Bytes &b);

/**
 * Append-only serializer with explicit little-endian encoding.
 *
 * Writes are length-prefixed for variable-size fields so the matching
 * ByteReader can validate framing without an external schema.
 */
class ByteWriter
{
  public:
    /** The accumulated bytes. */
    const Bytes &bytes() const { return buf_; }

    /** Move the accumulated bytes out. */
    Bytes take() { return std::move(buf_); }

    void writeU8(std::uint8_t v);
    void writeU16(std::uint16_t v);
    void writeU32(std::uint32_t v);
    void writeU64(std::uint64_t v);
    void writeI64(std::int64_t v);
    void writeDouble(double v);
    void writeBool(bool v);

    /** Raw bytes, no length prefix. */
    void writeRaw(const Bytes &v);

    /** Length-prefixed (u32) byte string. */
    void writeBytes(const Bytes &v);

    /** Length-prefixed (u32) UTF-8 string. */
    void writeString(const std::string &v);

    /** @name Field codec: one overload per field type, read back by
     *  the matching ByteReader::get(). */
    ///@{
    void put(bool v) { writeBool(v); }
    void put(std::uint32_t v) { writeU32(v); }
    void put(std::uint64_t v) { writeU64(v); }
    void put(const std::string &v) { writeString(v); }
    void put(const Bytes &v) { writeBytes(v); }
    /** u32 count, then each value as u64. */
    void put(const std::vector<std::uint64_t> &v);
    ///@}

    /** Every field of @p record, in the order T::fields() lists them. */
    template <class T>
    void
    putFields(const T &record)
    {
        T::fields(record, [this](const auto &...v) { (put(v), ...); });
    }

  private:
    Bytes buf_;
};

/**
 * Cursor-based deserializer matching ByteWriter.
 *
 * All reads are bounds-checked; a short or malformed buffer sets the
 * error flag instead of reading past the end, and every subsequent
 * read returns a zero value. Callers check ok() once after parsing.
 */
class ByteReader
{
  public:
    explicit ByteReader(const Bytes &buf) : buf_(buf) {}

    std::uint8_t readU8();
    std::uint16_t readU16();
    std::uint32_t readU32();
    std::uint64_t readU64();
    std::int64_t readI64();
    double readDouble();
    bool readBool();

    /** Exactly @p n raw bytes. */
    Bytes readRaw(std::size_t n);

    /** Length-prefixed byte string. */
    Bytes readBytes();

    /** Length-prefixed UTF-8 string. */
    std::string readString();

    /** @name Field codec: the inverse of ByteWriter::put(). */
    ///@{
    void get(bool &v) { v = readBool(); }
    void get(std::uint32_t &v) { v = readU32(); }
    void get(std::uint64_t &v) { v = readU64(); }
    void get(std::string &v) { v = readString(); }
    void get(Bytes &v) { v = readBytes(); }
    /** Fails (ok() turns false) on a count the buffer cannot hold. */
    void get(std::vector<std::uint64_t> &v);
    ///@}

    /** Every field of @p record, in the order T::fields() lists them. */
    template <class T>
    void
    getFields(T &record)
    {
        T::fields(record, [this](auto &...v) { (get(v), ...); });
    }

    /** True unless a read ran past the end of the buffer. */
    bool ok() const { return ok_; }

    /** True when the cursor consumed the entire buffer. */
    bool atEnd() const { return pos_ == buf_.size(); }

    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    bool need(std::size_t n);

    const Bytes &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace trust::core

#endif // TRUST_CORE_BYTES_HH
