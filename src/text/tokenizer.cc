#include "text/tokenizer.h"

namespace p2pdt {

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  ForEachToken(text,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace p2pdt
