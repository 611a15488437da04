# Runs hibersim on a config it must reject, and passes only on a clean
# rejection: exit code 1 with the offending key named on stderr.  An abort, a
# crash, a hang or any other exit code fails.
#
#   cmake -DHIBERSIM=<binary> -DCONFIG=<file> -DKEY=<config key> -P expect_config_error.cmake
execute_process(COMMAND "${HIBERSIM}" "${CONFIG}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1 from ${CONFIG}, got '${status}':\n${stderr}")
endif()
string(FIND "${stderr}" "key '${KEY}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name key '${KEY}':\n${stderr}")
endif()
