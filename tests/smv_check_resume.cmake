# Drives smv_check's checkpoint -> resume round trip on one model:
#
#   cmake -DSMV_CHECK=<binary> -DMODEL=<file.smv> -DCHECKPOINT_DIR=<dir>
#         -P smv_check_resume.cmake
#
# 1. An uninterrupted run records every spec's verdict.
# 2. A run under SYMCEX_FAULT_SPEC=deadline@eu:2 with SYMCEX_CHECKPOINT_DIR
#    set must exit 3, report one spec unknown and print
#    "checkpoint written: <path>".
# 3. smv_check --resume <path> must finish that spec with the verdict the
#    uninterrupted run printed for it.

# Budgets, faults and ambient directories would change what is tested.
foreach(var SYMCEX_NODE_LIMIT SYMCEX_MEMORY_LIMIT_MB SYMCEX_DEADLINE_MS
            SYMCEX_MAX_ITERATIONS SYMCEX_FAULT_SPEC SYMCEX_EVIDENCE_DIR
            SYMCEX_CHECKPOINT_DIR SYMCEX_CHECKPOINT_MARGIN_MS)
  unset(ENV{${var}})
endforeach()

execute_process(COMMAND "${SMV_CHECK}" "${MODEL}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE baseline
                ERROR_VARIABLE err)
if(NOT (status EQUAL 0 OR status EQUAL 1))
  message(FATAL_ERROR "baseline run exited '${status}'\n${baseline}${err}")
endif()

file(REMOVE_RECURSE "${CHECKPOINT_DIR}")
file(MAKE_DIRECTORY "${CHECKPOINT_DIR}")
set(ENV{SYMCEX_FAULT_SPEC} "deadline@eu:2")
set(ENV{SYMCEX_CHECKPOINT_DIR} "${CHECKPOINT_DIR}")
execute_process(COMMAND "${SMV_CHECK}" "${MODEL}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
unset(ENV{SYMCEX_FAULT_SPEC})
unset(ENV{SYMCEX_CHECKPOINT_DIR})
if(NOT status EQUAL 3)
  message(FATAL_ERROR "interrupted run exited '${status}', expected 3\n${out}${err}")
endif()
string(REGEX MATCH "-- specification ([^\n]*) is unknown" line "${out}")
if(NOT line)
  message(FATAL_ERROR "no spec reported unknown:\n${out}${err}")
endif()
set(spec "${CMAKE_MATCH_1}")
string(REGEX MATCH "checkpoint written: ([^\n]*) \\(continue with --resume\\)"
       line "${out}")
if(NOT line)
  message(FATAL_ERROR "no 'checkpoint written' line:\n${out}${err}")
endif()
set(checkpoint "${CMAKE_MATCH_1}")

set(expected "")
foreach(verdict true false)
  string(FIND "${baseline}" "-- specification ${spec} is ${verdict}\n" at)
  if(NOT at EQUAL -1)
    set(expected "${verdict}")
  endif()
endforeach()
if(expected STREQUAL "")
  message(FATAL_ERROR "baseline has no verdict for '${spec}':\n${baseline}")
endif()

execute_process(COMMAND "${SMV_CHECK}" --resume "${checkpoint}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE resumed
                ERROR_VARIABLE err)
if(expected STREQUAL "true")
  set(want_status 0)
else()
  set(want_status 1)
endif()
if(NOT status EQUAL want_status)
  message(FATAL_ERROR "resume exited '${status}', expected ${want_status}\n${resumed}${err}")
endif()
string(REGEX MATCH "-- specification [^\n]* is ([a-z]+)\n" line "${resumed}")
if(NOT CMAKE_MATCH_1 STREQUAL expected)
  message(FATAL_ERROR "resumed verdict '${CMAKE_MATCH_1}' for '${spec}', "
                      "uninterrupted run said '${expected}':\n${resumed}${err}")
endif()
