# Smoke contract: enabling --metrics changes no stdout byte, and stdout
# is identical across thread counts except the banner's threads= token
# (the registry only observes; it never reorders, draws randomness, or
# interleaves output). Driven by ctest as
#   cmake -DBENCH=... -DTB_ARGS=... -DOUT_DIR=... -P <this>
function(run_bench out_var)
  execute_process(
    COMMAND ${BENCH} ${TB_ARGS} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench ${ARGN} failed with exit code ${rc}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Metrics dumps are named per bench: several ctest entries run this script
# concurrently.
get_filename_component(bench_name ${BENCH} NAME_WE)
set(dump ${OUT_DIR}/smoke_perturb_${bench_name})
run_bench(plain_t2 --threads=2)
run_bench(metrics_t2 --threads=2 --metrics=${dump}_t2.json)
run_bench(metrics_t1 --threads=1 --metrics=${dump}_t1.json)
run_bench(metrics_t8 --threads=8 --metrics=${dump}_t8.json)

if(NOT plain_t2 STREQUAL metrics_t2)
  message(FATAL_ERROR "--metrics perturbed bench stdout")
endif()

# Cross-thread comparison: only the banner's "threads=N" token may differ.
foreach(var plain_t2 metrics_t1 metrics_t8)
  string(REGEX REPLACE "threads=[0-9]+" "threads=X" ${var}_norm "${${var}}")
endforeach()
if(NOT metrics_t1_norm STREQUAL plain_t2_norm)
  message(FATAL_ERROR "stdout differs between --threads=1 and --threads=2")
endif()
if(NOT metrics_t8_norm STREQUAL plain_t2_norm)
  message(FATAL_ERROR "stdout differs between --threads=8 and --threads=2")
endif()
