#include "common/error.hpp"

#include <sstream>

namespace mfd::detail {

void precondition_failed(const std::string& message) {
  throw Error("mfdft precondition failure: " + message);
}

void invariant_failed(const std::string& message,
                      const std::source_location& where) {
  std::ostringstream oss;
  oss << "mfdft invariant failure at " << where.file_name() << ':'
      << where.line() << " (" << where.function_name() << "): " << message;
  throw Error(oss.str());
}

}  // namespace mfd::detail
