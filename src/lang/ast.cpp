#include "lang/ast.hpp"

namespace sv::lang::ast {

std::string Type::str() const {
  std::string out;
  if (isConst) out += "const ";
  out += name;
  if (!args.empty()) {
    out += "<";
    for (usize i = 0; i < args.size(); ++i) {
      if (i) out += ", ";
      out += args[i].str();
    }
    out += ">";
  }
  for (int i = 0; i < pointer; ++i) out += "*";
  if (reference) out += "&";
  return out;
}

ExprPtr Expr::make(ExprKind k, Location l, std::string t) {
  auto e = std::make_unique<Expr>();
  e->kind = k;
  e->loc = l;
  e->text = std::move(t);
  return e;
}

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  e->text = text;
  e->typeArgs = typeArgs;
  e->valueType = valueType;
  e->apiHiddenTemplates = apiHiddenTemplates;
  e->apiImplicitConversions = apiImplicitConversions;
  for (const auto &a : args) e->args.push_back(a ? a->clone() : nullptr);
  for (const auto &p : params) e->params.push_back(cloneParam(p));
  if (body) e->body = body->clone();
  return e;
}

StmtPtr Stmt::make(StmtKind k, Location l) {
  auto s = std::make_unique<Stmt>();
  s->kind = k;
  s->loc = l;
  return s;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  for (const auto &c : children) s->children.push_back(c ? c->clone() : nullptr);
  if (cond) s->cond = cond->clone();
  if (init) s->init = init->clone();
  if (step) s->step = step->clone();
  for (const auto &d : decls) s->decls.push_back(cloneVarDecl(d));
  s->directive = directive;
  s->loopVar = loopVar;
  return s;
}

bool FunctionDecl::isKernel() const {
  for (const auto &a : attributes)
    if (a == "__global__") return true;
  return false;
}

VarDecl cloneVarDecl(const VarDecl &d) {
  VarDecl out;
  out.type = d.type;
  out.name = d.name;
  if (d.init) out.init = d.init->clone();
  for (const auto &dim : d.arrayDims) out.arrayDims.push_back(dim ? dim->clone() : nullptr);
  return out;
}

Param cloneParam(const Param &p) {
  Param out;
  out.type = p.type;
  out.name = p.name;
  if (p.defaultValue) out.defaultValue = p.defaultValue->clone();
  return out;
}

FunctionDecl cloneFunction(const FunctionDecl &f) {
  FunctionDecl out;
  out.name = f.name;
  out.returnType = f.returnType;
  for (const auto &p : f.params) out.params.push_back(cloneParam(p));
  if (f.body) out.body = f.body->clone();
  out.attributes = f.attributes;
  out.templateParams = f.templateParams;
  out.loc = f.loc;
  return out;
}

namespace {
bool eqExprPtr(const ExprPtr &a, const ExprPtr &b) {
  if (!a || !b) return !a && !b;
  return structurallyEqual(*a, *b);
}
bool eqStmtPtr(const StmtPtr &a, const StmtPtr &b) {
  if (!a || !b) return !a && !b;
  return structurallyEqual(*a, *b);
}
} // namespace

bool structurallyEqual(const Expr &a, const Expr &b) {
  if (a.kind != b.kind || a.text != b.text || a.typeArgs != b.typeArgs) return false;
  if (a.args.size() != b.args.size() || a.params.size() != b.params.size()) return false;
  for (usize i = 0; i < a.args.size(); ++i)
    if (!eqExprPtr(a.args[i], b.args[i])) return false;
  for (usize i = 0; i < a.params.size(); ++i) {
    if (a.params[i].type != b.params[i].type || a.params[i].name != b.params[i].name) return false;
  }
  return eqStmtPtr(a.body, b.body);
}

bool structurallyEqual(const Stmt &a, const Stmt &b) {
  if (a.kind != b.kind || a.loopVar != b.loopVar) return false;
  if (a.children.size() != b.children.size() || a.decls.size() != b.decls.size()) return false;
  if (a.directive.has_value() != b.directive.has_value()) return false;
  if (a.directive) {
    if (a.directive->family != b.directive->family || a.directive->kind != b.directive->kind)
      return false;
  }
  if (!eqExprPtr(a.cond, b.cond) || !eqExprPtr(a.step, b.step) || !eqStmtPtr(a.init, b.init))
    return false;
  for (usize i = 0; i < a.children.size(); ++i)
    if (!eqStmtPtr(a.children[i], b.children[i])) return false;
  for (usize i = 0; i < a.decls.size(); ++i) {
    const auto &da = a.decls[i];
    const auto &db = b.decls[i];
    if (da.name != db.name || da.type != db.type || !eqExprPtr(da.init, db.init)) return false;
  }
  return true;
}

} // namespace sv::lang::ast
