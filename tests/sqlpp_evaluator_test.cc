#include <gtest/gtest.h>

#include <map>

#include "adm/json.h"
#include "sqlpp/evaluator.h"
#include "sqlpp/parser.h"

namespace idea::sqlpp {
namespace {

using adm::Value;

/// A snapshot whose records are built from `values`, one record each.
Snapshot MakeSnapshot(std::vector<Value> values) {
  std::vector<adm::RecordSet::Record> records;
  for (Value& v : values) records.push_back(std::make_shared<const Value>(std::move(v)));
  return std::make_shared<const adm::RecordSet>(std::move(records));
}

/// In-memory dataset accessor for evaluator tests.
class MapAccessor : public DatasetAccessor {
 public:
  void Add(const std::string& name, std::vector<Value> records) {
    data_[name] = MakeSnapshot(std::move(records));
  }
  /// When set, every GetSnapshot call returns freshly built records that
  /// live only as long as that snapshot, so a reader that keeps a record
  /// past its snapshot reads freed memory.
  void set_fresh_records(bool fresh) { fresh_ = fresh; }
  bool HasDataset(const std::string& dataset) const override {
    return data_.count(dataset) > 0;
  }
  Result<Snapshot> GetSnapshot(const std::string& dataset) override {
    auto it = data_.find(dataset);
    if (it == data_.end()) return Status::NotFound(dataset);
    if (!fresh_) return it->second;
    return MakeSnapshot(std::vector<Value>(it->second->begin(), it->second->end()));
  }

 private:
  std::map<std::string, Snapshot> data_;
  bool fresh_ = false;
};

/// Minimal resolver exposing registered SQL++ functions.
class MapResolver : public FunctionResolver {
 public:
  void Register(SqlppFunctionDef def) { fns_[def.name] = std::move(def); }
  const SqlppFunctionDef* FindSqlppFunction(const std::string& name) const override {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }
  NativeFunctionHandle* FindNativeFunction(const std::string&) const override {
    return nullptr;
  }

 private:
  std::map<std::string, SqlppFunctionDef> fns_;
};

Value J(const std::string& json) {
  auto v = adm::ParseJson(json);
  EXPECT_TRUE(v.ok()) << json;
  return std::move(v).value();
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    accessor_.Add("Nums", {J(R"({"id":1,"v":10,"g":"a"})"), J(R"({"id":2,"v":20,"g":"b"})"),
                           J(R"({"id":3,"v":30,"g":"a"})"), J(R"({"id":4,"v":40,"g":"b"})"),
                           J(R"({"id":5,"v":50,"g":"a"})")});
    accessor_.Add("Words", {J(R"({"country":"US","word":"bomb"})"),
                            J(R"({"country":"US","word":"attack"})"),
                            J(R"({"country":"FR","word":"siege"})")});
    ctx_.datasets = &accessor_;
    ctx_.functions = &resolver_;
  }

  Value EvalExpr(const std::string& text) {
    auto e = ParseExpression(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.Eval(**e, &env);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Value();
  }

  Status EvalExprStatus(const std::string& text) {
    auto e = ParseExpression(text);
    if (!e.ok()) return e.status();
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.Eval(**e, &env);
    return r.ok() ? Status::OK() : r.status();
  }

  adm::Array Query(const std::string& text) {
    auto s = ParseStatement(text);
    EXPECT_TRUE(s.ok()) << text << ": " << s.status().ToString();
    EXPECT_EQ(s->kind, StatementKind::kQuery);
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.EvalQuery(*s->query, &env);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : adm::Array{};
  }

  MapAccessor accessor_;
  MapResolver resolver_;
  EvalContext ctx_;
};

TEST_F(EvaluatorTest, Arithmetic) {
  EXPECT_EQ(EvalExpr("1 + 2 * 3").AsInt(), 7);
  EXPECT_DOUBLE_EQ(EvalExpr("7 / 2").AsDouble(), 3.5);
  EXPECT_EQ(EvalExpr("-(3 - 5)").AsInt(), 2);
  EXPECT_DOUBLE_EQ(EvalExpr("1.5 + 1").AsDouble(), 2.5);
  EXPECT_EQ(EvalExpr("\"a\" || \"b\"").AsString(), "ab");
  EXPECT_TRUE(EvalExpr("1 / 0").IsNull());
}

TEST_F(EvaluatorTest, ThreeValuedLogic) {
  EXPECT_TRUE(EvalExpr("null AND true").IsNull());
  EXPECT_FALSE(EvalExpr("null AND false").AsBool());
  EXPECT_TRUE(EvalExpr("null OR true").AsBool());
  EXPECT_TRUE(EvalExpr("null OR false").IsNull());
  EXPECT_TRUE(EvalExpr("NOT null").IsNull());
  EXPECT_TRUE(EvalExpr("missing = 1").IsNull());
}

TEST_F(EvaluatorTest, Comparisons) {
  EXPECT_TRUE(EvalExpr("2 < 3").AsBool());
  EXPECT_TRUE(EvalExpr("2 = 2.0").AsBool());
  EXPECT_TRUE(EvalExpr("\"abc\" != \"abd\"").AsBool());
  EXPECT_FALSE(EvalExpr("1 = \"1\"").AsBool());
}

TEST_F(EvaluatorTest, CaseForms) {
  EXPECT_EQ(EvalExpr("CASE 2 WHEN 1 THEN \"a\" WHEN 2 THEN \"b\" ELSE \"c\" END").AsString(),
            "b");
  EXPECT_EQ(EvalExpr("CASE WHEN false THEN 1 ELSE 2 END").AsInt(), 2);
  EXPECT_TRUE(EvalExpr("CASE 9 WHEN 1 THEN 1 END").IsNull());
  EXPECT_EQ(EvalExpr("CASE 1 = 1 WHEN true THEN \"Red\" ELSE \"Green\" END").AsString(),
            "Red");
}

TEST_F(EvaluatorTest, FieldAndIndexAccess) {
  EXPECT_EQ(EvalExpr("{\"a\": {\"b\": 5}}.a.b").AsInt(), 5);
  EXPECT_TRUE(EvalExpr("{\"a\": 1}.zzz").IsMissing());
  EXPECT_EQ(EvalExpr("[10, 20, 30][1]").AsInt(), 20);
  EXPECT_TRUE(EvalExpr("[10][5]").IsMissing());
  EXPECT_TRUE(EvalExpr("5 . foo").IsMissing());
}

TEST_F(EvaluatorTest, BuiltinFunctions) {
  EXPECT_TRUE(EvalExpr("contains(\"hello world\", \"world\")").AsBool());
  EXPECT_EQ(EvalExpr("edit_distance(\"kitten\", \"sitting\")").AsInt(), 3);
  EXPECT_TRUE(EvalExpr(
                  "spatial_intersect(create_point(1.0, 1.0), "
                  "create_circle(create_point(0.0, 0.0), 2.0))")
                  .AsBool());
  EXPECT_EQ(EvalExpr("lower(\"ABC\")").AsString(), "abc");
  EXPECT_TRUE(EvalExpr("is_missing(missing)").AsBool());
  EXPECT_EQ(EvalExprStatus("no_such_fn(1)").code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, DatetimeArithmetic) {
  Value v = EvalExpr("datetime(\"2018-11-15T00:00:00Z\") + duration(\"P2M\")");
  ASSERT_TRUE(v.IsDateTime());
  EXPECT_TRUE(
      EvalExpr("datetime(\"2019-01-01\") < datetime(\"2018-11-15\") + duration(\"P2M\")")
          .AsBool());
}

TEST_F(EvaluatorTest, UnboundVariableIsError) {
  EXPECT_EQ(EvalExprStatus("nope").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, SelectValueScan) {
  adm::Array rows = Query("SELECT VALUE n.v FROM Nums n;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].AsInt(), 10);
}

TEST_F(EvaluatorTest, WhereFilters) {
  adm::Array rows = Query("SELECT VALUE n.id FROM Nums n WHERE n.v > 25;");
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(EvaluatorTest, ProjectionNamingRules) {
  adm::Array rows = Query("SELECT n.v, n.v * 2 AS twice, n.v + 1 FROM Nums n LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("v")->AsInt(), 10);
  EXPECT_EQ(rows[0].GetField("twice")->AsInt(), 20);
  EXPECT_EQ(rows[0].GetField("$3")->AsInt(), 11);
}

TEST_F(EvaluatorTest, StarSpread) {
  adm::Array rows = Query("SELECT n.*, n.v + 1 AS next FROM Nums n WHERE n.id = 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("id")->AsInt(), 1);
  EXPECT_EQ(rows[0].GetField("next")->AsInt(), 11);
}

TEST_F(EvaluatorTest, OrderByAndLimit) {
  adm::Array rows = Query("SELECT VALUE n.v FROM Nums n ORDER BY n.v DESC LIMIT 2;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].AsInt(), 50);
  EXPECT_EQ(rows[1].AsInt(), 40);
}

TEST_F(EvaluatorTest, GroupByWithAggregates) {
  adm::Array rows =
      Query("SELECT n.g AS g, count(*) AS c, sum(n.v) AS s FROM Nums n GROUP BY n.g "
            "ORDER BY n.g;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetField("g")->AsString(), "a");
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 3);
  EXPECT_EQ(rows[0].GetField("s")->AsInt(), 90);
  EXPECT_EQ(rows[1].GetField("c")->AsInt(), 2);
}

TEST_F(EvaluatorTest, GroupKeyStructuralMatchInSelect) {
  // SELECT n.g (no alias) must resolve to the grouping key.
  adm::Array rows = Query("SELECT n.g, count(*) AS c FROM Nums n GROUP BY n.g ORDER BY n.g;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetField("g")->AsString(), "a");
}

TEST_F(EvaluatorTest, GroupByAliasBinding) {
  adm::Array rows =
      Query("SELECT grp, count(*) AS c FROM Nums n GROUP BY n.g AS grp ORDER BY grp;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].GetField("grp")->AsString(), "b");
}

TEST_F(EvaluatorTest, ImplicitAggregationWithoutGroupBy) {
  adm::Array rows = Query("SELECT sum(n.v) AS total, count(*) AS c FROM Nums n;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("total")->AsInt(), 150);
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 5);
}

TEST_F(EvaluatorTest, ImplicitAggregationOverEmptyInput) {
  adm::Array rows = Query("SELECT count(*) AS c FROM Nums n WHERE n.v > 999;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 0);
}

TEST_F(EvaluatorTest, OrderByAggregate) {
  adm::Array rows =
      Query("SELECT VALUE n.g FROM Nums n GROUP BY n.g ORDER BY count(n) DESC LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsString(), "a");
}

TEST_F(EvaluatorTest, HavingFiltersGroups) {
  adm::Array rows =
      Query("SELECT VALUE n.g FROM Nums n GROUP BY n.g HAVING count(*) > 2;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsString(), "a");
}

TEST_F(EvaluatorTest, JoinTwoDatasets) {
  accessor_.Add("Pairs", {J(R"({"g":"a","label":"alpha"})"), J(R"({"g":"b","label":"beta"})")});
  adm::Array rows = Query(
      "SELECT n.id AS id, p.label AS label FROM Nums n, Pairs p WHERE n.g = p.g "
      "ORDER BY n.id;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].GetField("label")->AsString(), "alpha");
  EXPECT_EQ(rows[1].GetField("label")->AsString(), "beta");
}

TEST_F(EvaluatorTest, ExistsAndIn) {
  EXPECT_TRUE(
      EvalExpr("EXISTS(SELECT w FROM Words w WHERE w.country = \"US\")").AsBool());
  EXPECT_FALSE(
      EvalExpr("EXISTS(SELECT w FROM Words w WHERE w.country = \"XX\")").AsBool());
  EXPECT_TRUE(EvalExpr("\"FR\" IN (SELECT VALUE w.country FROM Words w)").AsBool());
  EXPECT_TRUE(EvalExpr("2 IN [1, 2, 3]").AsBool());
  EXPECT_FALSE(EvalExpr("9 IN [1, 2, 3]").AsBool());
}

TEST_F(EvaluatorTest, CorrelatedSubquery) {
  adm::Array rows = Query(
      "SELECT VALUE (SELECT VALUE w.word FROM Words w WHERE w.country = n.g) "
      "FROM Nums n WHERE n.id = 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsArray().size(), 0u);  // "a" is no country
}

TEST_F(EvaluatorTest, FromBoundVariable) {
  adm::Array rows = Query(
      "LET batch = ([{\"x\": 1}, {\"x\": 2}]) SELECT VALUE b.x FROM batch b;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].AsInt(), 2);
}

TEST_F(EvaluatorTest, FeedDatasourceIsRejected) {
  auto s = ParseStatement("SELECT VALUE t FROM FEED Tweets t;");
  ASSERT_TRUE(s.ok());
  Evaluator ev(ctx_);
  Env env;
  auto r = ev.EvalQuery(*s->query, &env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(EvaluatorTest, SqlppUdfCallReturnsCollection) {
  auto fn = ParseStatement(
      "CREATE FUNCTION flag(t) { LET f = CASE t.v > 25 WHEN true THEN \"hi\" ELSE "
      "\"lo\" END SELECT t.*, f };");
  ASSERT_TRUE(fn.ok());
  SqlppFunctionDef def;
  def.name = "flag";
  def.params = fn->create_function.params;
  def.body = std::shared_ptr<const SelectStatement>(std::move(fn->create_function.body));
  resolver_.Register(std::move(def));
  adm::Array rows = Query("SELECT VALUE flag(n)[0].f FROM Nums n ORDER BY n.id;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].AsString(), "lo");
  EXPECT_EQ(rows[4].AsString(), "hi");
}

TEST_F(EvaluatorTest, MissingProjectionFieldOmitted) {
  adm::Array rows = Query("SELECT n.nope AS gone, n.id AS id FROM Nums n LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("gone"), nullptr);
  EXPECT_NE(rows[0].GetField("id"), nullptr);
}

TEST_F(EvaluatorTest, LimitWithoutOrderStopsEarly) {
  Evaluator ev(ctx_);
  Env env;
  auto s = ParseStatement("SELECT VALUE n.id FROM Nums n LIMIT 2;");
  ASSERT_TRUE(s.ok());
  auto r = ev.EvalQuery(*s->query, &env);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  // Early exit: not all 5 records were scanned.
  EXPECT_LT(ev.stats().tuples_scanned, 5u);
}

// Grouped members borrow dataset records and elements of collections bound
// outside the block, and copy everything else. Whatever the binding source,
// count(*), sum(...) and count(x.f) must see every member intact.
TEST_F(EvaluatorTest, GroupByAggregatesOverEveryBindingSource) {
  accessor_.Add("Items", {J(R"({"id":1,"g":"a","v":10,"o":1})"), J(R"({"id":2,"g":"b","v":20})"),
                          J(R"({"id":3,"g":"a","v":30,"o":null})"),
                          J(R"({"id":4,"g":"b","v":40,"o":4})"),
                          J(R"({"id":5,"g":"a","v":50,"o":5})")});
  accessor_.Add("Keys", {J(R"({"id":5})"), J(R"({"id":4})"), J(R"({"id":3})"),
                         J(R"({"id":2})"), J(R"({"id":1})")});
  const std::string aggs = "SELECT x.g AS g, count(*) AS c, sum(x.v) AS s, count(x.o) AS co ";
  const std::string tail = " GROUP BY x.g ORDER BY x.g;";
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"dataset scan", aggs + "FROM Items x" + tail},
      {"pre-FROM LET collection",
       "LET items = (SELECT VALUE i FROM Items i) " + aggs + "FROM items x" + tail},
      {"FROM expression", aggs + "FROM (SELECT VALUE i FROM Items i) x" + tail},
      {"post-FROM LET",
       "SELECT y.g AS g, count(*) AS c, sum(y.v) AS s, count(y.o) AS co FROM Items i "
       "LET y = {\"g\": i.g, \"v\": i.v, \"o\": i.o} GROUP BY y.g ORDER BY y.g;"},
      {"inner dataset of a join", aggs + "FROM Keys k, Items x WHERE x.id = k.id" + tail},
  };
  for (bool fresh : {false, true}) {
    accessor_.set_fresh_records(fresh);
    for (const auto& [source, query] : sources) {
      SCOPED_TRACE(source + (fresh ? " (fresh records per scan)" : ""));
      adm::Array rows = Query(query);
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0], J(R"({"g":"a","c":3,"s":90,"co":2})")) << rows[0].ToString();
      EXPECT_EQ(rows[1], J(R"({"g":"b","c":2,"s":60,"co":1})")) << rows[1].ToString();
    }
    // Implicit aggregation that needs its members (not a pure aggregate list).
    adm::Array rows = Query("SELECT count(*) + 0 AS c, sum(x.v) AS s FROM Keys k, Items x "
                            "WHERE x.id = k.id;");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], J(R"({"c":5,"s":150})")) << rows[0].ToString();
  }
}

// A FROM variable that names an earlier alias iterates that alias's
// per-tuple value; its elements are copied into the group, not borrowed.
TEST_F(EvaluatorTest, GroupByOverElementsOfAnEarlierAlias) {
  adm::Array rows = Query(
      "LET nested = [[{\"g\":\"a\",\"v\":1}], [{\"g\":\"a\",\"v\":2}, "
      "{\"g\":\"b\",\"v\":3}]] "
      "SELECT e.g AS g, count(*) AS c, sum(e.v) AS s FROM nested arr, arr e "
      "GROUP BY e.g ORDER BY e.g;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], J(R"({"g":"a","c":2,"s":3})")) << rows[0].ToString();
  EXPECT_EQ(rows[1], J(R"({"g":"b","c":1,"s":3})")) << rows[1].ToString();
}

}  // namespace
}  // namespace idea::sqlpp
