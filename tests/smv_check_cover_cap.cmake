# Drives smv_check on tests/models/cover_cap_adder.smv, whose relation is
# too large for an evidence bundle, and checks that the verdicts survive.
#
#   cmake -DSMV_CHECK=<binary> -DMODEL=<file.smv> [-DEVIDENCE_DIR=<dir>]
#         -P smv_check_cover_cap.cmake
#
# Both verdicts must print and the exit code must be 1 (one spec fails).
# With EVIDENCE_DIR set, each spec must also report its bundle uncoverable.

# Budgets and an ambient evidence directory would change what is tested.
foreach(var SYMCEX_NODE_LIMIT SYMCEX_MEMORY_LIMIT_MB SYMCEX_DEADLINE_MS
            SYMCEX_MAX_ITERATIONS SYMCEX_FAULT_SPEC SYMCEX_EVIDENCE_DIR)
  unset(ENV{${var}})
endforeach()

set(args "${MODEL}")
if(DEFINED EVIDENCE_DIR)
  file(REMOVE_RECURSE "${EVIDENCE_DIR}")
  set(args --evidence "${EVIDENCE_DIR}" "${MODEL}")
endif()

execute_process(COMMAND "${SMV_CHECK}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

if(NOT status EQUAL 1)
  message(FATAL_ERROR "smv_check exited with '${status}', expected 1\n${out}${err}")
endif()
foreach(line "specification AG s <= 1022 is true"
             "specification AG s < 5 is false")
  string(FIND "${out}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing '${line}' in output:\n${out}${err}")
  endif()
endforeach()
if(DEFINED EVIDENCE_DIR)
  foreach(spec 0 1)
    string(FIND "${out}" "evidence bundle for spec ${spec} uncoverable" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "spec ${spec} not reported uncoverable:\n${out}${err}")
    endif()
  endforeach()
endif()
