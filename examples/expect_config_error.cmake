# Runs a command and passes only if it exits with EXIT_CODE and STDERR
# appears on its stderr.  For a rejection (a non-zero EXIT_CODE) an abort, a
# crash, a hang, a silent success or any other exit code fails.
#
#   cmake -DEXIT_CODE=<n> -DSTDERR=<text> -P expect_config_error.cmake -- <binary> [<arg>...]
set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXIT_CODE OR NOT DEFINED STDERR)
  message(FATAL_ERROR "usage: cmake -DEXIT_CODE=<n> -DSTDERR=<text> -P ${CMAKE_CURRENT_LIST_FILE}"
                      " -- <binary> [<arg>...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT status STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXIT_CODE} from '${command}', got '${status}':\n"
                      "${stderr}")
endif()
string(FIND "${stderr}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of '${command}' does not contain \"${STDERR}\":\n${stderr}")
endif()
