#include <gtest/gtest.h>

#include "minic/parser.hpp"

using namespace sv;
using namespace sv::minic;
using namespace sv::lang::ast;

namespace {
lang::SourceManager gSm;

TranslationUnit parse(const std::string &src) {
  const auto toks = lex(src, 0);
  return parseTranslationUnit(toks, "test.cpp", gSm);
}
} // namespace

TEST(Parser, EmptyUnit) {
  const auto tu = parse("");
  EXPECT_TRUE(tu.functions.empty());
  EXPECT_TRUE(tu.globals.empty());
}

TEST(Parser, SimpleFunction) {
  const auto tu = parse("int add(int a, int b) { return a + b; }");
  ASSERT_EQ(tu.functions.size(), 1u);
  const auto &f = tu.functions[0];
  EXPECT_EQ(f.name, "add");
  EXPECT_EQ(f.returnType.name, "int");
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_EQ(f.params[1].name, "b");
  ASSERT_TRUE(f.body);
  ASSERT_EQ(f.body->children.size(), 1u);
  EXPECT_EQ(f.body->children[0]->kind, StmtKind::Return);
  const auto &ret = *f.body->children[0]->cond;
  EXPECT_EQ(ret.kind, ExprKind::Binary);
  EXPECT_EQ(ret.text, "+");
}

TEST(Parser, FunctionDeclarationWithoutBody) {
  const auto tu = parse("double norm(const double* x, int n);");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_FALSE(tu.functions[0].body);
  EXPECT_EQ(tu.functions[0].params[0].type.pointer, 1);
  EXPECT_TRUE(tu.functions[0].params[0].type.isConst);
}

TEST(Parser, GlobalVariables) {
  const auto tu = parse("int n = 100;\ndouble tol = 1e-8, eps = 0.5;");
  ASSERT_EQ(tu.globals.size(), 3u);
  EXPECT_EQ(tu.globals[1].var.name, "tol");
  EXPECT_EQ(tu.globals[2].var.name, "eps");
}

TEST(Parser, StructDeclaration) {
  const auto tu = parse("struct Field { double* data; int nx; int ny; };");
  ASSERT_EQ(tu.structs.size(), 1u);
  EXPECT_EQ(tu.structs[0].name, "Field");
  ASSERT_EQ(tu.structs[0].fields.size(), 3u);
  EXPECT_EQ(tu.structs[0].fields[0].type.pointer, 1);
}

TEST(Parser, NamespaceQualifiesNames) {
  const auto tu = parse("namespace kern { void run() {} }");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_EQ(tu.functions[0].name, "kern::run");
}

TEST(Parser, OperatorPrecedence) {
  const auto tu = parse("int f() { return 1 + 2 * 3; }");
  const auto &e = *tu.functions[0].body->children[0]->cond;
  EXPECT_EQ(e.text, "+");
  EXPECT_EQ(e.args[1]->text, "*");
}

TEST(Parser, AssignmentRightAssociative) {
  const auto tu = parse("void f() { a = b = 1; }");
  const auto &e = *tu.functions[0].body->children[0]->cond;
  EXPECT_EQ(e.kind, ExprKind::Assign);
  EXPECT_EQ(e.args[1]->kind, ExprKind::Assign);
}

TEST(Parser, ForLoopAnatomy) {
  const auto tu = parse("void f(int n) { for (int i = 0; i < n; i++) { work(i); } }");
  const auto &s = *tu.functions[0].body->children[0];
  EXPECT_EQ(s.kind, StmtKind::For);
  ASSERT_TRUE(s.init);
  EXPECT_EQ(s.init->kind, StmtKind::DeclStmt);
  EXPECT_EQ(s.cond->text, "<");
  EXPECT_EQ(s.step->text, "post++");
  EXPECT_EQ(s.children[0]->kind, StmtKind::Compound);
}

TEST(Parser, IfElseChain) {
  const auto tu = parse("void f(int x) { if (x > 0) a(); else if (x < 0) b(); else c(); }");
  const auto &s = *tu.functions[0].body->children[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  ASSERT_EQ(s.children.size(), 2u);
  EXPECT_EQ(s.children[1]->kind, StmtKind::If);
}

TEST(Parser, WhileAndDoWhile) {
  const auto tu = parse("void f() { while (go()) step(); do { spin(); } while (busy()); }");
  EXPECT_EQ(tu.functions[0].body->children[0]->kind, StmtKind::While);
  EXPECT_EQ(tu.functions[0].body->children[1]->kind, StmtKind::DoWhile);
}

TEST(Parser, PragmaBindsToNextStatement) {
  const auto tu = parse(R"(
    void f(double* a, int n) {
      #pragma omp parallel for schedule(static)
      for (int i = 0; i < n; i++) a[i] = 0.0;
    })");
  const auto &s = *tu.functions[0].body->children[0];
  ASSERT_EQ(s.kind, StmtKind::Directive);
  ASSERT_TRUE(s.directive.has_value());
  EXPECT_EQ(s.directive->family, "omp");
  EXPECT_EQ(s.directive->kind, (std::vector<std::string>{"parallel", "for"}));
  ASSERT_EQ(s.directive->clauses.size(), 1u);
  EXPECT_EQ(s.directive->clauses[0].name, "schedule");
  ASSERT_EQ(s.children.size(), 1u);
  EXPECT_EQ(s.children[0]->kind, StmtKind::For);
}

TEST(Parser, StandaloneBarrierPragma) {
  const auto tu = parse("void f() {\n#pragma omp barrier\nint x = 1;\n}");
  const auto &body = *tu.functions[0].body;
  ASSERT_EQ(body.children.size(), 2u);
  EXPECT_EQ(body.children[0]->kind, StmtKind::Directive);
  EXPECT_TRUE(body.children[0]->children.empty());
  EXPECT_EQ(body.children[1]->kind, StmtKind::DeclStmt);
}

TEST(Parser, DirectiveClauseArguments) {
  const auto tu = parse(R"(
    void f(double* a, double sum, int n) {
      #pragma omp target teams distribute parallel for map(tofrom: sum) reduction(+:sum)
      for (int i = 0; i < n; i++) sum += a[i];
    })");
  const auto &d = *tu.functions[0].body->children[0]->directive;
  EXPECT_EQ(d.kind,
            (std::vector<std::string>{"target", "teams", "distribute", "parallel", "for"}));
  ASSERT_EQ(d.clauses.size(), 2u);
  EXPECT_EQ(d.clauses[0].name, "map");
  EXPECT_EQ(d.clauses[0].arguments, (std::vector<std::string>{"tofrom", "sum"}));
  EXPECT_EQ(d.clauses[1].arguments, (std::vector<std::string>{"+", "sum"}));
}

TEST(Parser, KernelLaunch) {
  const auto tu = parse("void run(double* a, int n) { copy_kernel<<<n / 256, 256>>>(a, n); }");
  const auto &e = *tu.functions[0].body->children[0]->cond;
  ASSERT_EQ(e.kind, ExprKind::KernelLaunch);
  ASSERT_EQ(e.args.size(), 5u); // callee, grid, block, a, n
  EXPECT_EQ(e.args[0]->text, "copy_kernel");
  EXPECT_EQ(e.args[1]->text, "/");
}

TEST(Parser, CudaKernelAttributes) {
  const auto tu = parse("__global__ void k(double* a) { a[threadIdx.x] = 0.0; }");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_TRUE(tu.functions[0].isKernel());
  const auto &idx = *tu.functions[0].body->children[0]->cond;
  EXPECT_EQ(idx.kind, ExprKind::Assign);
  EXPECT_EQ(idx.args[0]->args[1]->kind, ExprKind::Member);
  EXPECT_EQ(idx.args[0]->args[1]->text, "x");
}

TEST(Parser, QualifiedCalls) {
  const auto tu = parse("void f() { Kokkos::fence(); std::max(a, b); }");
  const auto &c0 = *tu.functions[0].body->children[0]->cond;
  EXPECT_EQ(c0.args[0]->text, "Kokkos::fence");
  const auto &c1 = *tu.functions[0].body->children[1]->cond;
  EXPECT_EQ(c1.args[0]->text, "std::max");
}

TEST(Parser, TemplateCallWithTypeArgs) {
  const auto tu = parse("void f(queue q, int n) { auto* p = sycl::malloc_device<double>(n, q); }");
  const auto &d = tu.functions[0].body->children[0]->decls[0];
  ASSERT_TRUE(d.init);
  const auto &call = *d.init;
  EXPECT_EQ(call.kind, ExprKind::Call);
  ASSERT_EQ(call.args[0]->typeArgs.size(), 1u);
  EXPECT_EQ(call.args[0]->typeArgs[0].name, "double");
}

TEST(Parser, TemplateArgsVersusComparison) {
  const auto tu = parse("void f(int a, int b, int c) { bool r = a < b; int s = a < b > (c); }");
  // `a < b` is a comparison; `a < b > (c)` parses as (a<b)>(c) since `a` is
  // not followed by a valid template-arg list ending in '>' '('... both are
  // comparisons here.
  const auto &d0 = *tu.functions[0].body->children[0]->decls[0].init;
  EXPECT_EQ(d0.text, "<");
}

TEST(Parser, MemberTemplateCall) {
  const auto tu =
      parse("void f(buffer b, handler h) { auto acc = b.get_access<access::mode::read>(h); }");
  const auto &call = *tu.functions[0].body->children[0]->decls[0].init;
  ASSERT_EQ(call.kind, ExprKind::Call);
  const auto &mem = *call.args[0];
  EXPECT_EQ(mem.kind, ExprKind::Member);
  EXPECT_EQ(mem.text, "get_access");
  ASSERT_EQ(mem.typeArgs.size(), 1u);
  EXPECT_EQ(mem.typeArgs[0].name, "access::mode::read");
}

TEST(Parser, SyclKernelNameTemplateArg) {
  const auto tu = parse("void f(handler h) { h.parallel_for<class init_k>(r, fn); }");
  const auto &call = *tu.functions[0].body->children[0]->cond;
  const auto &mem = *call.args[0];
  ASSERT_EQ(mem.typeArgs.size(), 1u);
  EXPECT_EQ(mem.typeArgs[0].name, "class init_k");
}

TEST(Parser, Lambda) {
  const auto tu = parse("void f() { auto g = [=](int i) { return i * 2; }; }");
  const auto &lam = *tu.functions[0].body->children[0]->decls[0].init;
  ASSERT_EQ(lam.kind, ExprKind::Lambda);
  EXPECT_EQ(lam.text, "=");
  ASSERT_EQ(lam.params.size(), 1u);
  EXPECT_EQ(lam.params[0].name, "i");
  ASSERT_TRUE(lam.body);
}

TEST(Parser, LambdaAsCallArgument) {
  const auto tu = parse(
      "void f(queue q) { q.submit([&](handler h) { h.single_task([=]() { work(); }); }); }");
  const auto &call = *tu.functions[0].body->children[0]->cond;
  ASSERT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.args[1]->kind, ExprKind::Lambda);
  EXPECT_EQ(call.args[1]->text, "&");
}

TEST(Parser, ConstructorStyleDecl) {
  const auto tu = parse("void f() { sycl::queue q; tbb::blocked_range r(0, n); }");
  const auto &s0 = *tu.functions[0].body->children[0];
  ASSERT_EQ(s0.kind, StmtKind::DeclStmt);
  EXPECT_EQ(s0.decls[0].type.name, "sycl::queue");
  const auto &s1 = *tu.functions[0].body->children[1];
  ASSERT_TRUE(s1.decls[0].init);
  EXPECT_EQ(s1.decls[0].init->kind, ExprKind::Call);
}

TEST(Parser, TemplatedTypeDecl) {
  const auto tu = parse("void f(int n) { sycl::buffer<double, 1> buf(data, sycl::range<1>(n)); }");
  const auto &d = tu.functions[0].body->children[0]->decls[0];
  EXPECT_EQ(d.type.name, "sycl::buffer");
  ASSERT_EQ(d.type.args.size(), 2u);
  EXPECT_EQ(d.type.args[0].name, "double");
  EXPECT_EQ(d.type.args[1].name, "1");
}

TEST(Parser, TemplateFunctionDecl) {
  const auto tu = parse("template <typename T> T triad(T a, T b, T scalar) { return a + scalar * b; }");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_EQ(tu.functions[0].templateParams, (std::vector<std::string>{"T"}));
}

TEST(Parser, ArrayDeclAndIndexing) {
  const auto tu = parse("void f() { double v[3]; v[0] = v[1] + v[2]; }");
  const auto &d = tu.functions[0].body->children[0]->decls[0];
  ASSERT_EQ(d.arrayDims.size(), 1u);
  EXPECT_EQ(d.arrayDims[0]->text, "3");
}

TEST(Parser, CStyleCast) {
  const auto tu = parse("void f(void* p) { double* d = (double*) p; }");
  const auto &init = *tu.functions[0].body->children[0]->decls[0].init;
  EXPECT_EQ(init.kind, ExprKind::Cast);
  EXPECT_EQ(init.valueType.pointer, 1);
}

TEST(Parser, ConditionalExpr) {
  const auto tu = parse("int f(int a, int b) { return a > b ? a : b; }");
  EXPECT_EQ(tu.functions[0].body->children[0]->cond->kind, ExprKind::Conditional);
}

TEST(Parser, InitListExpr) {
  const auto tu = parse("void f() { dim3 grid{16, 16}; }");
  const auto &d = tu.functions[0].body->children[0]->decls[0];
  ASSERT_TRUE(d.init);
}

TEST(Parser, SyntaxErrorHasLocation) {
  try {
    (void)parse("void f( {");
    FAIL() << "expected FrontendError";
  } catch (const lang::FrontendError &e) {
    EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos);
  }
}

namespace {
std::string nestedParens(usize depth) {
  return "int f() { return " + std::string(depth, '(') + "1" + std::string(depth, ')') + "; }";
}
} // namespace

TEST(Parser, DeepParenthesesFailCleanly) {
  // 100 000 levels would overflow the stack of an uncapped descent.
  EXPECT_THROW((void)parse(nestedParens(100000)), lang::FrontendError);
  std::string blocks = "void f() ";
  blocks += std::string(100000, '{') + std::string(100000, '}');
  EXPECT_THROW((void)parse(blocks), lang::FrontendError);
  EXPECT_THROW((void)parse("int f() { return " + std::string(100000, '-') + "1; }"),
               lang::FrontendError);
}

TEST(Parser, ModerateNestingStillParses) {
  const auto tu = parse(nestedParens(200));
  ASSERT_EQ(tu.functions.size(), 1u);
  const Expr *e = tu.functions[0].body->children[0]->cond.get();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, ExprKind::IntLit);
}

TEST(Parser, UsingDirectiveSkipped) {
  const auto tu = parse("using namespace sycl;\nint x = 1;");
  ASSERT_EQ(tu.globals.size(), 1u);
}

TEST(Parser, AddressOfAndDeref) {
  const auto tu = parse("void f(double* p) { double v = *p; double* q = &v; }");
  const auto &deref = *tu.functions[0].body->children[0]->decls[0].init;
  EXPECT_EQ(deref.kind, ExprKind::Unary);
  EXPECT_EQ(deref.text, "*");
}
