// Datatypes: AsterixDB-style *open* record types. A datatype names the
// required fields and their types; records may carry any number of extra
// fields (Figure 1 of the paper). Validation also coerces textual/JSON
// representations of extended types (datetime strings, [x,y] points, ...)
// into their ADM forms.
#pragma once

#include <string>
#include <vector>

#include "adm/value.h"
#include "common/status.h"

namespace idea::adm {

/// Declared type of a field in a datatype.
enum class FieldType : uint8_t {
  kAny,  // unconstrained (used for nested open content)
  kBoolean,
  kInt64,
  kDouble,
  kString,
  kDateTime,
  kDuration,
  kPoint,
  kRectangle,
  kCircle,
  kArray,
  kObject,
};

/// Parses a type name from DDL ("int64", "string", "point", ...).
Result<FieldType> FieldTypeFromName(const std::string& name);
const char* FieldTypeName(FieldType t);

/// One declared field of a datatype.
struct FieldSpec {
  std::string name;
  FieldType type = FieldType::kAny;
  bool optional = false;  // declared with '?' in DDL
};

/// An open record type: `CREATE TYPE T AS OPEN { ... }`.
class Datatype {
 public:
  Datatype() = default;
  Datatype(std::string name, std::vector<FieldSpec> fields)
      : name_(std::move(name)), fields_(std::move(fields)) {}

  const std::string& name() const { return name_; }
  const std::vector<FieldSpec>& fields() const { return fields_; }

  /// Checks that `record` is an object carrying every non-optional declared
  /// field with a compatible type, coercing convertible representations in
  /// place:
  ///   string  -> datetime / duration (ISO-8601)
  ///   int64   -> double
  ///   [x,y]                    -> point
  ///   [[x,y],[x,y]]            -> rectangle
  ///   [[x,y],r]                -> circle
  /// Extra (undeclared) fields pass through untouched (open datatype).
  Status ValidateAndCoerce(Value* record) const;

 private:
  std::string name_;
  std::vector<FieldSpec> fields_;
};

}  // namespace idea::adm
