# Smoke contract: bench_lp_solver's scaling-grid --json dump is valid
# JSON with the per-cell schema, every cell is optimal, and the dense
# oracle and lp::Solver report equal objectives per (rows, density) cell.
# Driven by ctest as
#   cmake -DBENCH=... -DTB_ARGS=... -DPYTHON=... -DCHECKER=...
#         -DOUT_DIR=... -P <this>
set(grid_file ${OUT_DIR}/smoke_lp_grid.json)

execute_process(
  COMMAND ${BENCH} ${TB_ARGS} --nodes=4 --full-limit=0 --grid-max-rows=100
    --json=${grid_file}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_lp_solver failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${PYTHON} ${CHECKER} ${grid_file}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "LP grid contract failed: ${out}${err}")
endif()
message(STATUS "${out}")
