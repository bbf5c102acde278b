# Runs a command and requires an exact exit code, and optionally that its
# stderr contains a string (the flag a rejection must name):
#
#   cmake -DEXPECT=2 [-DMENTION=--n] -P expect_exit.cmake -- <command> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
set(in_cmd FALSE)
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${cmd}\nexited ${code}, want ${EXPECT}\n${err}")
endif()
if(DEFINED MENTION)
  string(FIND "${err}" "${MENTION}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${cmd}\nstderr does not name ${MENTION}:\n${err}")
  endif()
endif()
