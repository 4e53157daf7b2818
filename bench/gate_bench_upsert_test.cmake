# gate_bench shares BENCH_preprocess.json with perf_microbench's
# stack_preprocess rows.  Runs `gate_bench --quick` on a copy of the
# committed file and checks that it replaced only its own gate_median rows,
# then on a BENCH_preprocess.json that cannot be rewritten (a directory)
# and checks that it exits non-zero.
#
#   cmake -DGATE_BENCH=<exe> -DCOMMITTED=<BENCH_preprocess.json>
#         -DWORK_DIR=<scratch dir> -P gate_bench_upsert_test.cmake
set(stack_row "\"bench\": \"stack_preprocess\"")
set(gate_row "\"bench\": \"gate_median\"")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/rows"
     "${WORK_DIR}/unwritable/BENCH_preprocess.json")
file(COPY "${COMMITTED}" DESTINATION "${WORK_DIR}/rows")
file(STRINGS "${COMMITTED}" stack_before REGEX "${stack_row}")
list(LENGTH stack_before stack_count)
if(stack_count EQUAL 0)
  message(FATAL_ERROR "${COMMITTED} holds no stack_preprocess rows")
endif()

execute_process(COMMAND "${GATE_BENCH}" --quick
  WORKING_DIRECTORY "${WORK_DIR}/rows" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gate_bench --quick exited ${rc}")
endif()
set(out "${WORK_DIR}/rows/BENCH_preprocess.json")
file(STRINGS "${out}" stack_after REGEX "${stack_row}")
file(STRINGS "${out}" gate_after REGEX "${gate_row}")
list(LENGTH stack_after stack_after_count)
list(LENGTH gate_after gate_count)
if(NOT stack_after STREQUAL stack_before)
  message(FATAL_ERROR "gate_bench rewrote the stack_preprocess rows: "
                      "${stack_count} before, ${stack_after_count} after")
endif()
if(NOT gate_count EQUAL 4)
  message(FATAL_ERROR "expected 4 gate_median rows (upsilon 4/8 x "
                      "insertion/network), found ${gate_count}")
endif()

execute_process(COMMAND "${GATE_BENCH}" --quick
  WORKING_DIRECTORY "${WORK_DIR}/unwritable" RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "gate_bench exited 0 though BENCH_preprocess.json is unwritable")
endif()
message(STATUS "gate_bench kept ${stack_count} stack_preprocess rows, "
               "wrote ${gate_count} gate_median rows, failed on an "
               "unwritable file (exit ${rc})")
