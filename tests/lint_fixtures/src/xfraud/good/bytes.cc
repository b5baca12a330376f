// Fixture: byte encoding through the codec, a non-char reinterpret_cast
// (socket address families), and reinterpret_cast<char*> mentioned in a
// comment or a string all pass no-raw-bytes.
#include <string>

struct SockAddr {};
struct SockAddrIn {};

SockAddr* AsGeneric(SockAddrIn* in) {
  return reinterpret_cast<SockAddr*>(in);
}

const char* Describe() { return "reinterpret_cast<const char*>(&v)"; }
