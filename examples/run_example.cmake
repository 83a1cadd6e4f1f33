# Smoke test for one example binary (examples/CMakeLists.txt):
#   cmake -DEXE=<binary> [-DARGS=<arg>] [-DSHA256=<hex>]
#         [-DEXPECT_ERROR=<regex>] -P run_example.cmake
# The binary must exit 0 with stdout hashing to SHA256 (when given), or,
# with EXPECT_ERROR, exit non-zero with stderr matching the regex.
execute_process(COMMAND ${EXE} ${ARGS}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(DEFINED EXPECT_ERROR)
  if(rc EQUAL 0 OR NOT err MATCHES "${EXPECT_ERROR}")
    message(FATAL_ERROR "want a failure matching '${EXPECT_ERROR}', got "
                        "exit ${rc}:\n${out}\n${err}")
  endif()
elseif(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}:\n${out}\n${err}")
elseif(DEFINED SHA256)
  string(SHA256 got "${out}")
  if(NOT got STREQUAL SHA256)
    message(FATAL_ERROR "stdout SHA-256 ${got}, pinned ${SHA256}:\n${out}")
  endif()
endif()
