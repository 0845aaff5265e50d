/**
 * @file
 * One wire-format definition per type.
 *
 * Every artifact that crosses a trust boundary (program images,
 * update manifests, full and delta bundles, the staging journal, the
 * rollback bank, attestation reports) and the instruction-trace file
 * is little-endian and length-prefixed, and states its layout once,
 * as an ordered field list that both sides run:
 *
 *   template <class W, class Self>
 *   static void wire(W &w, Self &self)
 *   {
 *       w.tag(kMagic).str(self.title).u64(self.counter);
 *   }
 *
 * WireWriter (Self = const T) streams the fields into a ByteSink or
 * only counts them; WireReader (Self = T) parses them from a byte
 * view. The list follows the wire, not the struct declaration.
 *
 * The canonical-reader rule: every reader primitive rejects each
 * value its writer cannot produce — a wrong tag, a flag other than 0
 * or 1, an enum past its last enumerator, a varint with a redundant
 * high byte or past 64 bits, a list count above its cap or above the
 * bytes that remain, a length past the end, a nested value with
 * trailing bytes. decode() then requires the whole input
 * consumed and runs the type's optional `bool validate() const` for
 * what a field list cannot state (geometry, ordering). So whatever
 * decode() accepts re-encodes to the same bytes.
 *
 * Readers soft-fail: these bytes are attacker-controlled until
 * verified, so a rejection latches ok() false and surfaces as
 * std::nullopt, never as a fatal().
 */

#ifndef SECPROC_UTIL_WIRE_HH
#define SECPROC_UTIL_WIRE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace secproc::util
{

/** Destination for streamed encoding: a caller can hash a
 *  multi-megabyte image without materializing its bytes. */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;
    virtual void write(const uint8_t *data, size_t len) = 0;
};

/** Sink that appends to a byte vector. */
class VectorSink final : public ByteSink
{
  public:
    explicit VectorSink(std::vector<uint8_t> &out) : out_(out) {}

    void
    write(const uint8_t *data, size_t len) override
    {
        out_.insert(out_.end(), data, data + len);
    }

  private:
    std::vector<uint8_t> &out_;
};

/** The codec's access to a field list and validate(); a type with
 *  private fields befriends it. */
struct WireAccess
{
    template <class W, class T>
    static void
    fields(W &w, T &value)
    {
        std::remove_const_t<T>::wire(w, value);
    }

    template <class T>
    static bool
    valid(const T &value)
    {
        if constexpr (requires { value.validate(); })
            return value.validate();
        return true;
    }
};

template <class T> uint64_t encodedSize(const T &value);
template <class T> bool decodeInto(std::span<const uint8_t>, T &value);

/** Encoding side of a field list: writes to a sink, or only counts. */
class WireWriter
{
  public:
    WireWriter() = default; ///< counts only
    explicit WireWriter(ByteSink &sink) : sink_(&sink) {}

    uint64_t written() const { return written_; }

    /** A constant the reader requires verbatim (magic, version). */
    WireWriter &tag(uint32_t v) { return u32(v); }
    WireWriter &u8(uint8_t v) { return le(v); }
    WireWriter &u32(uint32_t v) { return le(v); }
    WireWriter &u64(uint64_t v) { return le(v); }
    /** An IEEE double by its bit pattern. */
    WireWriter &f64(double v) { return u64(std::bit_cast<uint64_t>(v)); }

    /** Minimal LEB128: seven bits per byte, low group first. */
    WireWriter &
    varint(uint64_t v)
    {
        uint8_t out[10];
        size_t len = 0;
        for (; v >= 0x80; v >>= 7)
            out[len++] = static_cast<uint8_t>(v) | 0x80;
        out[len++] = static_cast<uint8_t>(v);
        return raw(out, len);
    }

    /** A signed value zigzag-mapped (0, -1, 1, -2, ...) to a varint. */
    WireWriter &
    zigzag(int64_t v)
    {
        return varint((static_cast<uint64_t>(v) << 1) ^
                      static_cast<uint64_t>(v >> 63));
    }

    /** A bool as u32 / one byte 0 or 1. @{ */
    WireWriter &flag(bool v) { return u32(v ? 1 : 0); }
    WireWriter &flag8(bool v) { return u8(v ? 1 : 0); }
    /** @} */

    /** An enum as u32 / one byte; @p max is its last enumerator. @{ */
    template <class E>
    WireWriter &enumeration(E v, E max) { return u32(checked(v, max)); }
    template <class E>
    WireWriter &enumeration8(E v, E max) { return u8(checked(v, max)); }
    /** @} */

    /** Fixed-size bytes, no length prefix. */
    template <size_t N>
    WireWriter &
    bytes(const std::array<uint8_t, N> &a)
    {
        return raw(a.data(), N);
    }

    /** u32 length, then a byte vector's or string's bytes. */
    template <class Bytes>
    WireWriter &
    blob(const Bytes &b)
    {
        return u32(narrow32(b.size()))
            .raw(reinterpret_cast<const uint8_t *>(b.data()), b.size());
    }

    WireWriter &str(const std::string &s) { return blob(s); }

    /** varint length, then the string's bytes. */
    WireWriter &
    vstr(const std::string &s)
    {
        return varint(s.size())
            .raw(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    /** u32 / varint count, then @p fn(writer, element) for each. @{ */
    template <class T, class Fn>
    WireWriter &
    list(const std::vector<T> &items, size_t cap, Fn fn)
    {
        u32(static_cast<uint32_t>(capped(items.size(), cap)));
        for (const T &item : items)
            fn(*this, item);
        return *this;
    }

    template <class T, class Fn>
    WireWriter &
    vlist(const std::vector<T> &items, size_t cap, Fn fn)
    {
        varint(capped(items.size(), cap));
        for (const T &item : items)
            fn(*this, item);
        return *this;
    }
    /** @} */

    /** An encoded value framed by its u32 / u64 byte length. @{ */
    template <class T>
    WireWriter &
    nested32(const T &value)
    {
        return framed(narrow32(encodedSize(value)), value);
    }

    template <class T>
    WireWriter &
    nested64(const T &value)
    {
        return framed(encodedSize(value), value);
    }
    /** @} */

  private:
    ByteSink *sink_ = nullptr;
    uint64_t written_ = 0;

    static uint32_t
    narrow32(uint64_t len)
    {
        panic_if(len > std::numeric_limits<uint32_t>::max(),
                 "u32-framed field of ", len, " bytes");
        return static_cast<uint32_t>(len);
    }

    template <class E>
    static uint32_t
    checked(E v, E max)
    {
        panic_if(v > max, "encoding an out-of-range enumerator");
        return static_cast<uint32_t>(v);
    }

    static size_t
    capped(size_t count, size_t cap)
    {
        panic_if(count > cap, "list of ", count, " over its cap ", cap);
        return count;
    }

    template <class U>
    WireWriter &
    le(U v)
    {
        uint8_t out[sizeof(U)];
        for (size_t i = 0; i < sizeof(U); ++i)
            out[i] = static_cast<uint8_t>(v >> (8 * i));
        return raw(out, sizeof(U));
    }

    WireWriter &
    raw(const uint8_t *data, size_t len)
    {
        if (sink_ != nullptr)
            sink_->write(data, len);
        written_ += len;
        return *this;
    }

    /** A counting writer already knows the nested value's size. */
    template <class Len, class T>
    WireWriter &
    framed(Len len, const T &value)
    {
        le(len);
        if (sink_ == nullptr)
            written_ += len;
        else
            WireAccess::fields(*this, value);
        return *this;
    }
};

/**
 * Decoding side of a field list, over a byte view. A rejected field
 * latches ok() false and later fields read nothing, so a field list
 * needs no early returns.
 */
class WireReader
{
  public:
    explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

    bool ok() const { return ok_; }
    /** Every byte consumed and nothing rejected. */
    bool atEnd() const { return ok_ && pos_ == data_.size(); }
    size_t remaining() const { return data_.size() - pos_; }

    /** Reject unless @p good: for what no primitive can state. */
    WireReader &check(bool good) { ok_ = ok_ && good; return *this; }

    WireReader &
    tag(uint32_t expected)
    {
        uint32_t v = 0;
        return u32(v).check(v == expected);
    }

    WireReader &u8(uint8_t &v) { return le(v); }
    WireReader &u32(uint32_t &v) { return le(v); }
    WireReader &u64(uint64_t &v) { return le(v); }

    WireReader &
    f64(double &v)
    {
        uint64_t bits = 0;
        u64(bits);
        v = std::bit_cast<double>(bits);
        return *this;
    }

    /** Rejects a final zero byte after the first (a longer spelling
     *  of a shorter varint) and a tenth byte above 1 (past 64 bits). */
    WireReader &
    varint(uint64_t &v)
    {
        v = 0;
        for (unsigned shift = 0; ok_; shift += 7) {
            uint8_t byte = 0;
            u8(byte).check(shift < 63 || byte <= 1);
            v |= uint64_t{byte & 0x7Fu} << shift;
            if ((byte & 0x80) == 0)
                return check(byte != 0 || shift == 0);
        }
        return *this;
    }

    WireReader &
    zigzag(int64_t &v)
    {
        uint64_t raw = 0;
        varint(raw);
        v = static_cast<int64_t>((raw >> 1) ^ (0 - (raw & 1)));
        return *this;
    }

    WireReader &flag(bool &v) { return flagAs<uint32_t>(v); }
    WireReader &flag8(bool &v) { return flagAs<uint8_t>(v); }

    template <class E>
    WireReader &enumeration(E &v, E max) { return enumAs<uint32_t>(v, max); }
    template <class E>
    WireReader &enumeration8(E &v, E max) { return enumAs<uint8_t>(v, max); }

    template <size_t N>
    WireReader &
    bytes(std::array<uint8_t, N> &a)
    {
        const auto view = take(N);
        std::copy(view.begin(), view.end(), a.begin());
        return *this;
    }

    /** Into a std::vector<uint8_t> or a std::string. */
    template <class Bytes>
    WireReader &
    blob(Bytes &out)
    {
        uint32_t len = 0;
        const auto view = u32(len).take(len);
        out.assign(view.begin(), view.end());
        return *this;
    }

    WireReader &str(std::string &s) { return blob(s); }

    WireReader &
    vstr(std::string &s)
    {
        uint64_t len = 0;
        const auto view = varint(len).take(len);
        s.assign(view.begin(), view.end());
        return *this;
    }

    /**
     * A u32 / varint count, then @p fn(reader, element) per element.
     * The count is checked against @p cap and the bytes that remain
     * before anything is allocated, and the reservation is no more
     * elements than those bytes could pay for: a claimed count never
     * sizes an allocation past the input. @{
     */
    template <class T, class Fn>
    WireReader &
    list(std::vector<T> &items, size_t cap, Fn fn)
    {
        uint32_t count = 0;
        return u32(count).elements(items, count, cap, fn);
    }

    template <class T, class Fn>
    WireReader &
    vlist(std::vector<T> &items, size_t cap, Fn fn)
    {
        uint64_t count = 0;
        return varint(count).elements(items, count, cap, fn);
    }
    /** @} */

    /** Decode a framed value in place, from a view of the input. @{ */
    template <class T>
    WireReader &nested32(T &value) { return framed<uint32_t>(value); }
    template <class T>
    WireReader &nested64(T &value) { return framed<uint64_t>(value); }
    /** @} */

  private:
    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool ok_ = true;

    template <class Raw>
    WireReader &
    flagAs(bool &v)
    {
        Raw raw = 0;
        le(raw);
        v = raw == 1;
        return check(raw <= 1);
    }

    template <class Raw, class E>
    WireReader &
    enumAs(E &v, E max)
    {
        Raw raw = 0;
        le(raw).check(raw <= static_cast<Raw>(max));
        if (ok_)
            v = static_cast<E>(raw);
        return *this;
    }

    template <class T, class Fn>
    WireReader &
    elements(std::vector<T> &items, uint64_t count, size_t cap, Fn fn)
    {
        check(count <= cap && count <= remaining());
        items.clear();
        if (ok_)
            items.reserve(std::min<size_t>(count,
                                           remaining() / sizeof(T)));
        for (uint64_t i = 0; i < count && ok_; ++i)
            fn(*this, items.emplace_back());
        return *this;
    }

    /** The next @p len bytes, or an empty view and !ok(). */
    std::span<const uint8_t>
    take(uint64_t len)
    {
        if (!ok_ || len > remaining()) {
            ok_ = false;
            return {};
        }
        const auto view = data_.subspan(pos_, static_cast<size_t>(len));
        pos_ += view.size();
        return view;
    }

    template <class U>
    WireReader &
    le(U &v)
    {
        const auto view = take(sizeof(U));
        v = 0;
        for (size_t i = 0; i < view.size(); ++i)
            v |= static_cast<U>(view[i]) << (8 * i);
        return *this;
    }

    template <class Len, class T>
    WireReader &
    framed(T &value)
    {
        Len len = 0;
        const auto view = le(len).take(len);
        return check(ok_ && decodeInto(view, value));
    }
};

/** Stream @p value's encoding into @p sink. */
template <class T>
void
encodeTo(ByteSink &sink, const T &value)
{
    WireWriter writer(sink);
    WireAccess::fields(writer, value);
}

/** Bytes encode(@p value) produces, without producing them. */
template <class T>
uint64_t
encodedSize(const T &value)
{
    WireWriter counter;
    WireAccess::fields(counter, value);
    return counter.written();
}

/** @p value's encoding, in one exact-sized allocation. */
template <class T>
std::vector<uint8_t>
encode(const T &value)
{
    std::vector<uint8_t> out;
    out.reserve(encodedSize(value));
    VectorSink sink(out);
    encodeTo(sink, value);
    return out;
}

/** Parse all of @p data into the default-constructed @p value, then
 *  validate() it. @return false on any rejection. */
template <class T>
bool
decodeInto(std::span<const uint8_t> data, T &value)
{
    WireReader reader(data);
    WireAccess::fields(reader, value);
    return reader.atEnd() && WireAccess::valid(value);
}

/** Parse a whole encoding; std::nullopt on any rejection. */
template <class T>
std::optional<T>
decode(std::span<const uint8_t> data)
{
    std::optional<T> value(std::in_place);
    if (!decodeInto(data, *value))
        return std::nullopt;
    return value;
}

} // namespace secproc::util

#endif // SECPROC_UTIL_WIRE_HH
