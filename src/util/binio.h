// Little-endian binary (de)serialization primitives for the checkpoint
// formats (sim::Platform snapshots and anything else that needs a compact,
// versioned on-disk representation).
//
// Every writer is explicit about width and byte order, so snapshots are
// portable across platforms; every reader validates stream state and throws
// std::runtime_error with the caller-supplied context on truncation, so a
// corrupt checkpoint fails loudly instead of resuming from garbage.
// write_file_atomic is the one way whole files are published: a reader
// never sees a half-written or failed write under the final name.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace melody::util::binio {

inline void write_u8(std::ostream& out, std::uint8_t value) {
  out.put(static_cast<char>(value));
}

inline void write_u32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof bytes);
}

inline void write_u64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof bytes);
}

inline void write_i32(std::ostream& out, std::int32_t value) {
  write_u32(out, static_cast<std::uint32_t>(value));
}

inline void write_f64(std::ostream& out, double value) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  write_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// Length-prefixed byte string (u64 length + raw bytes).
inline void write_bytes(std::ostream& out, const std::string& bytes) {
  write_u64(out, bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline std::uint8_t read_u8(std::istream& in, const char* what) {
  const int c = in.get();
  if (c == std::char_traits<char>::eof()) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  return static_cast<std::uint8_t>(c);
}

inline std::uint32_t read_u32(std::istream& in, const char* what) {
  char bytes[4];
  if (!in.read(bytes, sizeof bytes)) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

inline std::uint64_t read_u64(std::istream& in, const char* what) {
  char bytes[8];
  if (!in.read(bytes, sizeof bytes)) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

inline std::int32_t read_i32(std::istream& in, const char* what) {
  return static_cast<std::int32_t>(read_u32(in, what));
}

inline double read_f64(std::istream& in, const char* what) {
  return std::bit_cast<double>(read_u64(in, what));
}

/// Reads a length-prefixed byte string written by write_bytes. `max_size`
/// guards against a corrupted length field allocating unbounded memory.
inline std::string read_bytes(std::istream& in, const char* what,
                              std::uint64_t max_size = (1ull << 32)) {
  const std::uint64_t size = read_u64(in, what);
  if (size > max_size) {
    throw std::runtime_error(std::string(what) + ": implausible length");
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (size > 0 && !in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  return bytes;
}

/// Publish a whole file atomically: `writer(out)` fills `<path>.tmp`, which
/// is flushed, closed and checked BEFORE the rename into place — a write
/// error surfacing only when the buffered tail reaches the disk (ENOSPC at
/// close) throws std::runtime_error and leaves `path` untouched.
template <typename Writer>
void write_file_atomic(const std::string& path, Writer&& writer) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    writer(out);
    out.close();
    if (!out) throw std::runtime_error("write failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace melody::util::binio
