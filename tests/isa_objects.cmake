# Fails when an object compiled with extra ISA flags defines a weak or
# unique symbol.  Such a symbol is an inline function or template the
# object shares with baseline TUs, so the linker keeps one copy for every
# caller and may keep this object's: a host without the ISA would then run
# its instructions outside any CPUID check.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>... -DEXPECT=<src>|<src>... \
#         -P isa_objects.cmake
#
# OBJECTS is every object of the libraries holding ISA-flagged TUs; EXPECT
# names the sources of those TUs, each of which must have an object among
# them.
string(REPLACE "|" ";" objects "${OBJECTS}")
string(REPLACE "|" ";" expect "${EXPECT}")
foreach(name IN LISTS expect)
  set(found "")
  foreach(obj IN LISTS objects)
    get_filename_component(file "${obj}" NAME)
    if(file MATCHES "^${name}\\.")
      set(found "${obj}")
    endif()
  endforeach()
  if(NOT found)
    message(SEND_ERROR "no object for ${name} among: ${OBJECTS}")
    continue()
  endif()
  execute_process(COMMAND "${NM}" -C "${found}"
    OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${NM} failed on ${found}")
    continue()
  endif()
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    # Defined weak (W, V) or unique global (u) symbols.
    if(line MATCHES "^[0-9a-fA-F]+ [WVu] (.*)$")
      set(symbol "${CMAKE_MATCH_1}")
      if(NOT symbol STREQUAL "DW.ref.__gxx_personality_v0")
        message(SEND_ERROR "${name}: shared symbol built with its ISA: ${symbol}")
      endif()
    endif()
  endforeach()
  message(STATUS "${name}: checked ${found}")
endforeach()
