#ifndef SHARPCQ_SERVER_PROTOCOL_H_
#define SHARPCQ_SERVER_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sharpcq {

// Wire format of the sharpcqd daemon (server/daemon.h).
//
// Every message — request or response — travels as one frame:
//
//   frame   = length payload
//   length  = 4-byte big-endian payload size (bytes)
//
// A request payload is a header line plus an optional body:
//
//   request = command [SP key=value]... LF body
//
// The body's meaning is per command: the query text for `count`, CSV rows
// for `ingest`, empty otherwise. A response payload is a status line,
// `key: value` provenance fields one per line, and an optional body
// separated by a blank line:
//
//   response = ("ok" | "error" SP code SP message) LF
//              (key ": " value LF)...
//              [LF body]
//
// The protocol is strictly request-response per connection: a client sends
// one frame and reads one frame back. Parsing and serialization here are
// pure (testable without sockets); SendFrame/RecvFrame do the fd I/O.

// Frames above this size are rejected with kFrameTooLarge before any
// payload is read; the daemon then drops the connection, since the unread
// payload makes resynchronization impossible.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 16u << 20;

// Error codes carried in the response status line. Strings, not an enum,
// so clients in other languages compare them without a shared header.
namespace wire {
inline constexpr const char kBadRequest[] = "BAD_REQUEST";
inline constexpr const char kUnknownCommand[] = "UNKNOWN_COMMAND";
inline constexpr const char kNotFound[] = "NOT_FOUND";
inline constexpr const char kParseError[] = "PARSE_ERROR";
inline constexpr const char kDeadlineExceeded[] = "DEADLINE_EXCEEDED";
inline constexpr const char kCancelled[] = "CANCELLED";
// A memory budget refused the request's allocations (distinct from
// OVERLOADED: the daemon is healthy and keeps serving; retrying the same
// query will exhaust the same budget unless the budget was process-wide
// and other queries have since finished).
inline constexpr const char kResourceExhausted[] = "RESOURCE_EXHAUSTED";
// Storage-layer failures surfaced over the wire; mirror StatusCodeName
// (util/status.h) so the daemon maps Status codes 1:1.
inline constexpr const char kCorruptData[] = "CORRUPT_DATA";
inline constexpr const char kIoError[] = "IO_ERROR";
inline constexpr const char kOverloaded[] = "OVERLOADED";
inline constexpr const char kFrameTooLarge[] = "FRAME_TOO_LARGE";
inline constexpr const char kShuttingDown[] = "SHUTTING_DOWN";
inline constexpr const char kInternal[] = "INTERNAL";
}  // namespace wire

struct Request {
  std::string command;
  // Header arguments in wire order. Keys and values must not contain
  // whitespace; values may contain '=' (the split is on the first one).
  std::vector<std::pair<std::string, std::string>> args;
  std::string body;

  // First value for `key`, or nullptr.
  const std::string* Arg(std::string_view key) const;
};

std::string SerializeRequest(const Request& request);

// A deadline argument (`deadline_ms=`, `--default-deadline-ms`): a
// non-negative decimal integer that fits in 64 bits. nullopt on a sign,
// junk, an empty string or overflow.
std::optional<std::chrono::milliseconds> ParseDeadlineMs(
    std::string_view text);

// nullopt with *error set on an empty header line, a bare argument with no
// '=', or an empty argument key.
std::optional<Request> ParseRequest(std::string_view payload,
                                    std::string* error);

struct Response {
  bool ok = false;
  std::string code;     // one of wire::*, empty when ok
  std::string message;  // human-readable, empty when ok
  std::vector<std::pair<std::string, std::string>> fields;
  std::string body;

  void Add(std::string key, std::string value);
  // First value for `key`, or nullptr.
  const std::string* Field(std::string_view key) const;
};

Response OkResponse();
Response ErrorResponse(std::string code, std::string message);

std::string SerializeResponse(const Response& response);
std::optional<Response> ParseResponse(std::string_view payload,
                                      std::string* error);

// --- fd framing --------------------------------------------------------------

enum class FrameStatus {
  kOk,
  kClosed,    // orderly EOF at a frame boundary
  kTooLarge,  // header announced more than max_bytes; payload unread
  kError,     // socket error or EOF mid-frame
};

// Writes the length header and payload. Uses MSG_NOSIGNAL, so a peer that
// vanished yields false (with *error set), never SIGPIPE.
bool SendFrame(int fd, std::string_view payload, std::string* error);

// Reads one frame into *payload. kClosed only when EOF lands exactly
// between frames; a disconnect mid-frame is kError.
FrameStatus RecvFrame(int fd, std::uint32_t max_bytes, std::string* payload,
                      std::string* error);

}  // namespace sharpcq

#endif  // SHARPCQ_SERVER_PROTOCOL_H_
