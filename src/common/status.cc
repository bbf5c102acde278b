#include "common/status.h"

namespace hotstuff1 {

const std::string& Status::message() const {
  static const std::string kEmpty;
  return error_ ? *error_ : kEmpty;
}

std::string Status::ToString() const {
  return ok() ? "OK" : "Unauthenticated: " + *error_;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace hotstuff1
