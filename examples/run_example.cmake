# Smoke test for one example or paper bench binary (examples/CMakeLists.txt,
# bench/CMakeLists.txt):
#   cmake -DEXE=<binary> [-DARGS=<args>] [-DSHA256=<hex>]
#         [-DDROP_LINES=<regex>] [-DEXPECT_ERROR=<regex>]
#         -P run_example.cmake
# The binary must exit 0 with stdout hashing to SHA256 (when given), or,
# with EXPECT_ERROR, exit non-zero with stderr matching the regex.
# DROP_LINES leaves the stdout lines it matches in full (say, a wall-time
# line) out of the hash.
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
  if(DEFINED DROP_LINES)
    set(rest "${out}")
    set(out "")
    while(NOT rest STREQUAL "")
      string(FIND "${rest}" "\n" eol)
      if(eol EQUAL -1)
        set(line "${rest}")
        set(rest "")
      else()
        string(SUBSTRING "${rest}" 0 ${eol} line)
        math(EXPR next "${eol} + 1")
        string(SUBSTRING "${rest}" ${next} -1 rest)
      endif()
      if(NOT line MATCHES "^${DROP_LINES}$")
        string(APPEND out "${line}\n")
      endif()
    endwhile()
  endif()
  string(SHA256 got "${out}")
  if(NOT got STREQUAL SHA256)
    message(FATAL_ERROR "stdout SHA-256 ${got}, pinned ${SHA256}:\n${out}")
  endif()
endif()
