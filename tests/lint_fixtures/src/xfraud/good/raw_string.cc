// Raw string literals whose CONTENTS would fire rules if the scanner ever
// let them leak into the code half: the stripper must treat everything
// between the delimiters as literal text, for default, custom-delimiter,
// and encoding-prefixed forms alike.

namespace xfraud::fixture {

const char* BasicRawString() {
  // Would fire nondeterminism + no-raw-io if scanned as code.
  return R"(std::cout << rand(); srand(1);)";
}

const char* CustomDelimiter() {
  // The inner )" must NOT close the literal; only )xy" does. Contents
  // would fire no-naked-new + no-direct-write if mis-scanned.
  return R"xy(int* p = new int; )" std::ofstream out("f");)xy";
}

const char* PrefixedRawString() {
  // u8R / LR / uR / UR prefixes are raw too; a backslash before the
  // closing quote is literal, not an escape. (The cast views char8_t
  // text as char, not an object as bytes.) xfraud-lint: allow(no-raw-bytes)
  return reinterpret_cast<const char*>(u8R"(time(nullptr) \)");
}

const wchar_t* WideRawString() {
  return LR"(socket(AF_INET, SOCK_STREAM, 0); // TODO: not a real comment)";
}

const char* MultiLineRawString() {
  return R"sql(
    SELECT rand() FROM txn;  -- fopen("x", "w") in literal text
  )sql";
}

const char* NotRawJustPasted() {
  // FOOR"..." is an ordinary string glued to an identifier by a macro
  // paste, not a raw literal; \" inside is an escape.
  return "R\"(this is an ordinary string)\"";
}

}  // namespace xfraud::fixture
