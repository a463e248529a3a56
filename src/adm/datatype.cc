#include "adm/datatype.h"

#include "adm/temporal.h"
#include "common/string_util.h"

namespace idea::adm {

Result<FieldType> FieldTypeFromName(const std::string& name) {
  std::string n = ToLowerAscii(name);
  if (n == "any") return FieldType::kAny;
  if (n == "boolean" || n == "bool") return FieldType::kBoolean;
  if (n == "int64" || n == "int" || n == "bigint") return FieldType::kInt64;
  if (n == "double" || n == "float") return FieldType::kDouble;
  if (n == "string") return FieldType::kString;
  if (n == "datetime") return FieldType::kDateTime;
  if (n == "duration") return FieldType::kDuration;
  if (n == "point") return FieldType::kPoint;
  if (n == "rectangle") return FieldType::kRectangle;
  if (n == "circle") return FieldType::kCircle;
  if (n == "array") return FieldType::kArray;
  if (n == "object" || n == "record") return FieldType::kObject;
  return Status::InvalidArgument("unknown type name '" + name + "'");
}

const char* FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kAny:
      return "any";
    case FieldType::kBoolean:
      return "boolean";
    case FieldType::kInt64:
      return "int64";
    case FieldType::kDouble:
      return "double";
    case FieldType::kString:
      return "string";
    case FieldType::kDateTime:
      return "datetime";
    case FieldType::kDuration:
      return "duration";
    case FieldType::kPoint:
      return "point";
    case FieldType::kRectangle:
      return "rectangle";
    case FieldType::kCircle:
      return "circle";
    case FieldType::kArray:
      return "array";
    case FieldType::kObject:
      return "object";
  }
  return "unknown";
}

namespace {

bool TypeMatches(FieldType ft, const Value& v) {
  switch (ft) {
    case FieldType::kAny:
      return true;
    case FieldType::kBoolean:
      return v.IsBool();
    case FieldType::kInt64:
      return v.IsInt();
    case FieldType::kDouble:
      return v.IsDouble();
    case FieldType::kString:
      return v.IsString();
    case FieldType::kDateTime:
      return v.IsDateTime();
    case FieldType::kDuration:
      return v.IsDuration();
    case FieldType::kPoint:
      return v.IsPoint();
    case FieldType::kRectangle:
      return v.IsRectangle();
    case FieldType::kCircle:
      return v.IsCircle();
    case FieldType::kArray:
      return v.IsArray();
    case FieldType::kObject:
      return v.IsObject();
  }
  return false;
}

bool AsXY(const Value& v, Point* out) {
  if (!v.IsArray() || v.AsArray().size() != 2) return false;
  const Value& x = v.AsArray()[0];
  const Value& y = v.AsArray()[1];
  if (!x.IsNumeric() || !y.IsNumeric()) return false;
  *out = Point{x.AsNumber(), y.AsNumber()};
  return true;
}

// Coerces in place; returns false when no coercion applies.
bool TryCoerce(FieldType ft, Value* v) {
  switch (ft) {
    case FieldType::kDouble:
      if (v->IsInt()) {
        *v = Value::MakeDouble(static_cast<double>(v->AsInt()));
        return true;
      }
      return false;
    case FieldType::kDateTime: {
      if (!v->IsString()) return false;
      auto dt = ParseDateTime(v->AsString());
      if (!dt.ok()) return false;
      *v = Value::MakeDateTime(*dt);
      return true;
    }
    case FieldType::kDuration: {
      if (!v->IsString()) return false;
      auto d = ParseDuration(v->AsString());
      if (!d.ok()) return false;
      *v = Value::MakeDuration(*d);
      return true;
    }
    case FieldType::kPoint: {
      Point p;
      if (!AsXY(*v, &p)) return false;
      *v = Value::MakePoint(p);
      return true;
    }
    case FieldType::kRectangle: {
      if (!v->IsArray() || v->AsArray().size() != 2) return false;
      Point lo, hi;
      if (!AsXY(v->AsArray()[0], &lo) || !AsXY(v->AsArray()[1], &hi)) return false;
      *v = Value::MakeRectangle(Rectangle{lo, hi});
      return true;
    }
    case FieldType::kCircle: {
      if (!v->IsArray() || v->AsArray().size() != 2) return false;
      Point c;
      const Value& r = v->AsArray()[1];
      if (!AsXY(v->AsArray()[0], &c) || !r.IsNumeric()) return false;
      *v = Value::MakeCircle(Circle{c, r.AsNumber()});
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

Status Datatype::ValidateAndCoerce(Value* record) const {
  if (!record->IsObject()) {
    return Status::TypeMismatch("record for datatype '" + name_ + "' is not an object");
  }
  for (const auto& spec : fields_) {
    Value* field = nullptr;
    for (auto& [fname, fval] : record->MutableObject()) {
      if (fname == spec.name) {
        field = &fval;
        break;
      }
    }
    if (field == nullptr || field->IsMissing()) {
      if (spec.optional) continue;
      return Status::TypeMismatch("record missing required field '" + spec.name +
                                  "' of datatype '" + name_ + "'");
    }
    if (field->IsNull() && spec.optional) continue;
    if (TypeMatches(spec.type, *field)) continue;
    if (TryCoerce(spec.type, field)) continue;
    return Status::TypeMismatch("field '" + spec.name + "' of datatype '" + name_ +
                                "' expects " + FieldTypeName(spec.type) + ", got " +
                                ValueTypeName(field->type()));
  }
  return Status::OK();
}

}  // namespace idea::adm
