# Runs BENCH with no arguments, writes its stdout to OUT and byte-compares it
# with GOLDEN; on a mismatch prints a unified diff (where `diff` exists) and
# fails.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P compare_output.cmake
get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
