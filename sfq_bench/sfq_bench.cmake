# sfq_bench's build file: adds the sfq_bench target and its smoke test to the
# repository's own build, which it does not edit. CMake includes it at the
# end of the root project() call when the root build is configured with
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_streamfreq_INCLUDE=$PWD/sfq_bench/sfq_bench.cmake
#   cmake --build .bench_build --target sfq_bench
#   ctest --test-dir .bench_build -R sfq_bench_smoke
#
# so the library layers are compiled by their own CMake files, with the root
# build's options and warnings. sfq_bench/run.py does exactly this (with the
# tests, examples and experiment binaries switched off) before every run.
#
# The targets are declared once the root CMakeLists.txt has been read, when
# the layer targets and the language settings exist.
set(SFQ_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(sfq_bench_add_targets)
  add_executable(sfq_bench
    ${SFQ_BENCH_DIR}/sfq_bench.cc
    ${SFQ_BENCH_DIR}/layers.cc
    ${SFQ_BENCH_DIR}/serve.cc
    ${SFQ_BENCH_DIR}/track_tree.cc
    ${SFQ_BENCH_DIR}/util.cc)
  target_compile_definitions(sfq_bench PRIVATE
    SFQ_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  target_link_libraries(sfq_bench
    PRIVATE streamfreq_dist streamfreq_server streamfreq_concurrent
            streamfreq_core streamfreq_stream streamfreq_hash streamfreq_util
            streamfreq_warnings)
  # Beside the experiment binaries: scripts/check.sh runs every build/bench/*
  # without arguments, which for sfq_bench is the smoke run.
  set_target_properties(sfq_bench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

  # No arguments = the smoke run: every workload on scaled-down inputs with
  # every correctness gate on.
  add_test(NAME sfq_bench_smoke COMMAND sfq_bench)
  set_tests_properties(sfq_bench_smoke PROPERTIES
    WORKING_DIRECTORY ${CMAKE_BINARY_DIR} TIMEOUT 300)
endfunction()

enable_testing()
cmake_language(DEFER CALL sfq_bench_add_targets)
