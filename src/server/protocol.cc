#include "server/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace sharpcq {

namespace {

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Splits a header line on runs of spaces; no empty tokens.
std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

}  // namespace

const std::string* Request::Arg(std::string_view key) const {
  for (const auto& [k, v] : args) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string SerializeRequest(const Request& request) {
  std::string out = request.command;
  for (const auto& [k, v] : request.args) {
    out.push_back(' ');
    out.append(k);
    out.push_back('=');
    out.append(v);
  }
  out.push_back('\n');
  out.append(request.body);
  return out;
}

std::optional<std::uint64_t> ParseUnsigned(std::string_view text,
                                           std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<std::chrono::milliseconds> ParseDeadlineMs(
    std::string_view text) {
  std::optional<std::uint64_t> ms = ParseUnsigned(text, INT64_MAX);
  if (!ms) return std::nullopt;
  return std::chrono::milliseconds(static_cast<std::int64_t>(*ms));
}

std::optional<Request> ParseRequest(std::string_view payload,
                                    std::string* error) {
  std::size_t newline = payload.find('\n');
  std::string_view header =
      newline == std::string_view::npos ? payload : payload.substr(0, newline);
  Request request;
  if (newline != std::string_view::npos) {
    request.body = std::string(payload.substr(newline + 1));
  }
  std::vector<std::string_view> tokens = SplitTokens(header);
  if (tokens.empty()) {
    SetError(error, "empty request header");
    return std::nullopt;
  }
  request.command = std::string(tokens[0]);
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      SetError(error,
               "malformed argument (want key=value): " + std::string(tokens[i]));
      return std::nullopt;
    }
    request.args.emplace_back(std::string(tokens[i].substr(0, eq)),
                              std::string(tokens[i].substr(eq + 1)));
  }
  return request;
}

void Response::Add(std::string key, std::string value) {
  fields.emplace_back(std::move(key), std::move(value));
}

const std::string* Response::Field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

Response OkResponse() {
  Response response;
  response.ok = true;
  return response;
}

Response ErrorResponse(std::string code, std::string message) {
  Response response;
  response.ok = false;
  response.code = std::move(code);
  response.message = std::move(message);
  return response;
}

std::string SerializeResponse(const Response& response) {
  std::string out;
  if (response.ok) {
    out = "ok\n";
  } else {
    out = "error " + response.code + " " + response.message + "\n";
  }
  for (const auto& [k, v] : response.fields) {
    out.append(k);
    out.append(": ");
    out.append(v);
    out.push_back('\n');
  }
  if (!response.body.empty()) {
    out.push_back('\n');
    out.append(response.body);
  }
  return out;
}

std::optional<Response> ParseResponse(std::string_view payload,
                                      std::string* error) {
  std::size_t newline = payload.find('\n');
  if (newline == std::string_view::npos) {
    SetError(error, "response missing status line terminator");
    return std::nullopt;
  }
  std::string_view status = payload.substr(0, newline);
  Response response;
  if (status == "ok") {
    response.ok = true;
  } else if (status.rfind("error ", 0) == 0) {
    std::string_view rest = status.substr(6);
    std::size_t space = rest.find(' ');
    response.code = std::string(rest.substr(0, space));
    if (space != std::string_view::npos) {
      response.message = std::string(rest.substr(space + 1));
    }
    if (response.code.empty()) {
      SetError(error, "error status with empty code");
      return std::nullopt;
    }
  } else {
    SetError(error, "bad status line: " + std::string(status));
    return std::nullopt;
  }
  std::string_view rest = payload.substr(newline + 1);
  while (!rest.empty()) {
    std::size_t line_end = rest.find('\n');
    std::string_view line =
        line_end == std::string_view::npos ? rest : rest.substr(0, line_end);
    if (line.empty()) {
      // Blank separator: everything after it is the body.
      response.body = std::string(
          line_end == std::string_view::npos ? "" : rest.substr(line_end + 1));
      break;
    }
    std::size_t colon = line.find(": ");
    if (colon == std::string_view::npos || colon == 0) {
      SetError(error, "bad field line: " + std::string(line));
      return std::nullopt;
    }
    response.fields.emplace_back(std::string(line.substr(0, colon)),
                                 std::string(line.substr(colon + 2)));
    if (line_end == std::string_view::npos) break;
    rest = rest.substr(line_end + 1);
  }
  return response;
}

// --- fd framing --------------------------------------------------------------

namespace {

bool SendAll(int fd, const char* data, std::size_t size, std::string* error) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SetError(error, std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// 1 = ok, 0 = EOF before any byte, -1 = error/EOF mid-read.
int RecvAll(int fd, char* data, std::size_t size, std::string* error) {
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      SetError(error, std::string("recv: ") + std::strerror(errno));
      return -1;
    }
    if (n == 0) {
      if (got == 0) return 0;
      SetError(error, "connection closed mid-frame");
      return -1;
    }
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

bool SendFrame(int fd, std::string_view payload, std::string* error) {
  // One buffer, one send: writing the 4-byte header separately lets Nagle
  // hold the payload until the peer's delayed ACK (~40ms per direction),
  // turning sub-millisecond request/response round trips into ~80ms ones.
  std::string frame;
  frame.reserve(4 + payload.size());
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>(size >> 24));
  frame.push_back(static_cast<char>(size >> 16));
  frame.push_back(static_cast<char>(size >> 8));
  frame.push_back(static_cast<char>(size));
  frame.append(payload);
  return SendAll(fd, frame.data(), frame.size(), error);
}

FrameStatus RecvFrame(int fd, std::uint32_t max_bytes, std::string* payload,
                      std::string* error) {
  unsigned char header[4];
  int got = RecvAll(fd, reinterpret_cast<char*>(header), 4, error);
  if (got == 0) return FrameStatus::kClosed;
  if (got < 0) return FrameStatus::kError;
  const std::uint32_t size = (static_cast<std::uint32_t>(header[0]) << 24) |
                             (static_cast<std::uint32_t>(header[1]) << 16) |
                             (static_cast<std::uint32_t>(header[2]) << 8) |
                             static_cast<std::uint32_t>(header[3]);
  if (size > max_bytes) {
    SetError(error, "frame of " + std::to_string(size) +
                        " bytes exceeds limit of " + std::to_string(max_bytes));
    return FrameStatus::kTooLarge;
  }
  payload->resize(size);
  if (size > 0 && RecvAll(fd, payload->data(), size, error) != 1) {
    return FrameStatus::kError;
  }
  return FrameStatus::kOk;
}

}  // namespace sharpcq
