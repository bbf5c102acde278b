// Status: the outcome of a signature or certificate check. No exceptions:
// a check returns OK, or Unauthenticated with a message naming what failed
// (a quorum too small, a duplicate signer, a bad share).

#ifndef HOTSTUFF1_COMMON_STATUS_H_
#define HOTSTUFF1_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace hotstuff1 {

/// \brief OK, or an authentication failure with its message. OK is a null
/// pointer, so the success path costs one pointer compare.
class Status {
 public:
  static Status OK() { return Status(); }
  static Status Unauthenticated(std::string msg) {
    Status st;
    st.error_ = std::make_shared<const std::string>(std::move(msg));
    return st;
  }

  bool ok() const { return error_ == nullptr; }
  /// "" when OK.
  const std::string& message() const;
  /// "OK" or "Unauthenticated: <message>".
  std::string ToString() const;

 private:
  std::shared_ptr<const std::string> error_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_STATUS_H_
