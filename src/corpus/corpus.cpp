#include "corpus/corpus.hpp"

#include <algorithm>

namespace sv::corpus {

std::vector<std::string> appNames() {
  return {"babelstream", "babelstream-fortran", "minibude", "tealeaf", "cloverleaf"};
}

std::vector<std::string> modelsOf(const std::string &app) {
  if (app == "babelstream") return babelstreamModels();
  if (app == "babelstream-fortran") return babelstreamFortranModels();
  if (app == "minibude") return minibudeModels();
  if (app == "tealeaf") return tealeafModels();
  if (app == "cloverleaf") return cloverleafModels();
  internalError("unknown corpus app: " + app);
}

db::Codebase make(const std::string &app, const std::string &model) {
  const auto models = modelsOf(app);
  if (std::find(models.begin(), models.end(), model) == models.end())
    internalError("app " + app + " has no model '" + model + "'");
  if (app == "babelstream") return makeBabelstream(model);
  if (app == "babelstream-fortran") return makeBabelstreamFortran(model);
  if (app == "minibude") return makeMinibude(model);
  if (app == "tealeaf") return makeTealeaf(model);
  if (app == "cloverleaf") return makeCloverleaf(model);
  internalError("unknown corpus app: " + app);
}

db::CompileCommand commandFor(const std::string &file, const std::string &model) {
  db::CompileCommand cmd;
  cmd.directory = "/build";
  cmd.file = file;
  cmd.args = {"c++", "-O3", "-std=c++20", "-c", file};
  if (model == "omp") cmd.args.insert(cmd.args.begin() + 1, "-fopenmp");
  else if (model == "omp-target") {
    cmd.args.insert(cmd.args.begin() + 1, "-fopenmp");
    cmd.args.insert(cmd.args.begin() + 2, "-fopenmp-targets=nvptx64-nvidia-cuda");
  } else if (model == "cuda") {
    cmd.args = {"clang++", "-O3", "-x", "cuda", "--cuda-gpu-arch=sm_90", "-c", file};
  } else if (model == "hip") {
    cmd.args = {"clang++", "-O3", "-x", "hip", "--offload-arch=gfx90a", "-c", file};
  } else if (model == "sycl-usm" || model == "sycl-acc") {
    cmd.args = {"clang++", "-O3", "-fsycl", "-c", file};
  } else if (model == "kokkos") {
    cmd.args.insert(cmd.args.begin() + 1, "-DUSE_KOKKOS");
  } else if (model == "tbb") {
    cmd.args.insert(cmd.args.begin() + 1, "-DUSE_TBB");
  } else if (model == "std-indices") {
    cmd.args.insert(cmd.args.begin() + 1, "-DUSE_STDPAR");
  } else if (model == "acc" || model == "acc-array") {
    cmd.args.insert(cmd.args.begin() + 1, "-fopenacc");
  }
  return cmd;
}

} // namespace sv::corpus
