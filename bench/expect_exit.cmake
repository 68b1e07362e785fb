# ctest helper: run BENCH with ARG and fail unless it exits with EXPECTED
# and names itself on stderr.
#   cmake -DBENCH=<path> -DARG=<flag> -DEXPECTED=<code> -P expect_exit.cmake
execute_process(COMMAND ${BENCH} ${ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
get_filename_component(name ${BENCH} NAME)
if(NOT rc EQUAL EXPECTED)
  message(FATAL_ERROR "${name} ${ARG}: exit ${rc}, want ${EXPECTED}\n${err}")
endif()
if(NOT err MATCHES "${name}")
  message(FATAL_ERROR "${name} ${ARG}: stderr does not name the bench:\n${err}")
endif()
